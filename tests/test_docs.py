"""Every dotted usdlab name that the documentation cites must resolve."""
import functools
import importlib
import os
import pkgutil
import re

import pytest

import usdlab

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
DOCS = ["README.md", os.path.join("docs", "experiments.md")]
MODULES = {info.name for info in pkgutil.iter_modules(usdlab.__path__)}
# a backticked dotted name, optionally with a call's arguments; file names
# such as `points.json` share a first component with a module, not a name
NAME = re.compile(r"`(?:usdlab\.)?([a-z_]+)((?:\.[A-Za-z_]\w*)+)(?:\(.*?\))?`")
FILE_SUFFIXES = {"json", "csv", "py", "md", "svg"}


def _cited(doc):
    with open(os.path.join(ROOT, doc), encoding="utf-8") as fh:
        text = fh.read()
    return sorted({(module, attrs.lstrip(".")) for module, attrs in NAME.findall(text)
                   if module in MODULES and attrs.rsplit(".", 1)[-1] not in FILE_SUFFIXES})


CITED = [(doc, module, attrs) for doc in DOCS for module, attrs in _cited(doc)]


def test_the_documents_cite_module_names():
    names = {f"{module}.{attrs}" for _, module, attrs in CITED}
    assert {"multistart.LIFT_CAP_BYTES", "experiments.resummarize"} <= names


@pytest.mark.parametrize("doc, module, attrs", CITED,
                         ids=[f"{m}.{a}" for _, m, a in CITED])
def test_a_cited_name_resolves(doc, module, attrs):
    target = importlib.import_module(f"usdlab.{module}")
    functools.reduce(getattr, attrs.split("."), target)
