"""The README's syntax examples and CLI block agree with the parsers."""

import re
from pathlib import Path

import pytest

from noisegate.cli import build_parser
from noisegate.recognition import parse_recognizer
from noisegate.transforms import parse_transform

README = Path(__file__).resolve().parents[1] / "README.md"


def _paragraph(text, lead):
    start = text.index(lead)
    return text[start:text.index("\n\n", start)]


def readme_drift(text):
    """Each syntax example a parser rejects, and each `--flag` of the CLI block
    that its subcommand does not have."""
    problems = []
    examples = [(parse_transform, example) for example in
                re.findall(r"`([^`]+)`", _paragraph(text, "Transform syntax:"))]
    examples += [(parse_recognizer, example) for example in
                 re.findall(r"`([a-z]+:[^`]*)`", _paragraph(text, "Recognizer syntax:"))]
    for parse, example in examples:
        try:
            parse(example)
        except ValueError as exc:
            problems.append(f"{example}: {exc}")
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if a.dest == "command"]
    block = re.search(r"\n## CLI\n.*?```\n(.*?)```", text, re.S).group(1)
    for line in block.replace("\\\n", " ").splitlines():
        words = line.split()
        command = next(word for word in words if word in subparsers.choices)
        known = {**parser._option_string_actions,
                 **subparsers.choices[command]._option_string_actions}
        problems += [f"noisegate {command}: no flag {word}" for word in words
                     if word.startswith("--") and word not in known]
    return problems


def test_readme_examples_and_flags_parse():
    assert readme_drift(README.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("good, bad, problem", [
    ("--threshold 0.4", "--treshold 0.4", "noisegate detect: no flag --treshold"),
    ("`median:3`", "`medain:3`", "medain:3: unknown transform kind 'medain'"),
    ("`cache:<transcripts.jsonl>`", "`cahce:<transcripts.jsonl>`", "cahce:<transcripts.jsonl>: "
     "unknown recognizer 'cahce:<transcripts.jsonl>' (expected builtin:/external:/cache:)"),
])
def test_a_misspelling_is_caught(good, bad, problem):
    text = README.read_text(encoding="utf-8")
    assert text.count(good) == 1
    assert readme_drift(text.replace(good, bad)) == [problem]
