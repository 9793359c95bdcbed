"""Native lexical metrics, neural-score aggregation and significance tests."""
