"""The README's syntax examples, CLI block and library layout agree with the code."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import noisegate
from noisegate.cli import build_parser
from noisegate.recognition import _KINDS as RECOGNIZER_KINDS
from noisegate.recognition import parse_recognizer
from noisegate.transforms import parse_transform

MODULES = [noisegate, *(importlib.import_module(f"noisegate.{info.name}")
                        for info in pkgutil.iter_modules(noisegate.__path__))]

README = Path(__file__).resolve().parents[1] / "README.md"
ROC_LINE = ("noisegate roc     --recognizer builtin:model.txt --clean-manifest "
            "corpus/manifest.csv --adv-manifest adv/manifest.csv --out-dir out\n")


def _paragraph(text, lead):
    start = text.index(lead)
    return text[start:text.index("\n\n", start)]


def _resolves(name, commands) -> bool:
    """Whether `name` is a subcommand (`noisegate <sub>` or bare), a recognizer
    kind (`kind:`), a module (`noisegate.x`) or a dotted attribute of one."""
    if name.endswith(":"):
        return name[:-1] in RECOGNIZER_KINDS
    if name.removeprefix("noisegate ") in commands:
        return True
    for module in MODULES:
        target = module
        for part in name.removeprefix("noisegate.").split("."):
            target = getattr(target, part, None)
        if target is not None:
            return True
    return False


def readme_drift(text):
    """Each syntax example a parser rejects; each CLI-block line that names
    no subcommand, each subcommand with no line there, and each `--flag` of a
    line that its subcommand does not have; each Outputs bullet that names no
    subcommand; and each backticked name in the Library-layout table that names
    nothing in noisegate (a message form such as `noisegate <command>: ...` is
    not a name)."""
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
    shown = set()
    for line in block.replace("\\\n", " ").splitlines():
        words = line.split()
        command = next((word for word in words if word in subparsers.choices), None)
        if command is None:
            problems.append(f"CLI block: no subcommand in `{' '.join(words[:2])}`")
            continue
        shown.add(command)
        known = {**parser._option_string_actions,
                 **subparsers.choices[command]._option_string_actions}
        problems += [f"noisegate {command}: no flag {word}" for word in words
                     if word.startswith("--") and word not in known]
    problems += [f"CLI block: no line for noisegate {command}"
                 for command in subparsers.choices if command not in shown]
    outputs = text[text.index("\n## Outputs\n"):].split("\n## ")[1]
    problems += [f"Outputs: `{name}` names no subcommand"
                 for name in re.findall(r"^- `([^`]+)`", outputs, re.M)
                 if name not in subparsers.choices]
    layout = text[text.index("\n## Library layout\n"):].split("\n## ")[1]
    names = re.findall(r"`((?:noisegate )?[A-Za-z_][\w.]*:?)`",
                       "\n".join(re.findall(r"^\|.*\|$", layout, re.M)))
    problems += [f"Library layout: `{name}` names no noisegate attribute, subcommand or "
                 f"recognizer kind" for name in names if not _resolves(name, subparsers.choices)]
    return problems


def test_readme_examples_and_flags_parse():
    assert readme_drift(README.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("good, bad, problem", [
    ("--threshold 0.4", "--treshold 0.4", "noisegate detect: no flag --treshold"),
    ("`median:3`", "`medain:3`", "medain:3: unknown transform kind 'medain'"),
    ("`cache:<transcripts.jsonl>`", "`cahce:<transcripts.jsonl>`", "cahce:<transcripts.jsonl>: "
     "unknown recognizer 'cahce:<transcripts.jsonl>' (expected builtin:/external:/cache:)"),
    ("`relative_peak_db`", "`clamped_add`", "Library layout: `clamped_add` names no noisegate "
     "attribute, subcommand or recognizer kind"),
    ("`noisegate detect`", "`noisegate detcet`", "Library layout: `noisegate detcet` names no "
     "noisegate attribute, subcommand or recognizer kind"),
    ("`cache:`", "`cahce:`", "Library layout: `cahce:` names no noisegate attribute, "
     "subcommand or recognizer kind"),
    # a line or bullet of a removed subcommand, and a subcommand the CLI block lost
    (ROC_LINE, ROC_LINE + "noisegate spectrogram --in a.wav --out a.pgm\n",
     "CLI block: no subcommand in `noisegate spectrogram`"),
    ("noisegate defend --transform gaussian:200 --in adv/wavs/adv_0000.wav --out defended.wav\n",
     "", "CLI block: no line for noisegate defend"),
    ("- `detect`:", "- `spectrogram`: binary PGM.\n- `detect`:",
     "Outputs: `spectrogram` names no subcommand"),
])
def test_a_misspelling_is_caught(good, bad, problem):
    text = README.read_text(encoding="utf-8")
    assert text.count(good) == 1
    assert readme_drift(text.replace(good, bad)) == [problem]

