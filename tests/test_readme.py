"""The README's shell examples name only real flags, and its Quickstart is
the one CI runs."""

from __future__ import annotations

import re
import shlex

from conftest import REPO_ROOT
from refta.cli import main

README = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
CI = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
CI_STEP = "- name: README quickstart through the installed refta script"


def _refta_commands(script: str) -> list[list[str]]:
    """The tokens of each ``refta`` command in ``script``, ``\\`` continuations joined."""
    lines = script.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in map(str.strip, lines) if line.startswith("refta ")]


def _sh_blocks(markdown: str) -> str:
    return "\n".join(re.findall(r"```sh\n(.*?)```", markdown, flags=re.DOTALL))


def _options(command) -> set:
    return {"--help"} | {opt for param in command.params
                         for opt in param.opts + param.secondary_opts}


def test_every_readme_flag_is_an_option_of_its_command():
    commands = _refta_commands(_sh_blocks(README))
    assert len(commands) >= 6
    for tokens in commands:
        name = next(t for t in tokens[1:] if t in main.commands)
        allowed = _options(main.commands[name])
        flags = [t.split("=", 1)[0] for t in tokens[tokens.index(name) + 1:]
                 if t.startswith("--")]
        unknown = [flag for flag in flags if flag not in allowed]
        assert not unknown, f"README: refta {name} has no option {', '.join(unknown)}"


def test_ci_runs_the_readme_quickstart_in_order():
    quickstart = README.split("## Quickstart", 1)[1].split("\n## ", 1)[0]
    wanted = [" ".join(tokens) for tokens in _refta_commands(_sh_blocks(quickstart))]
    assert wanted
    step = CI.split(CI_STEP, 1)[1].split("\n      - name:", 1)[0]
    ran = iter(" ".join(tokens) for tokens in _refta_commands(step))
    missing = [command for command in wanted if command not in ran]  # consumes in order
    assert not missing, f"CI step {CI_STEP!r} does not run {missing}"
