"""The mutant catalogue cannot rot silently: each mutant's old text
occurs exactly once in src/, and each of its tests exists.  The mutants
themselves run only under mutants/run.py, outside this suite."""

import importlib.util
import os
import re

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def catalogue():
    path = os.path.join(ROOT, "mutants", "catalogue.py")
    spec = importlib.util.spec_from_file_location("mutant_catalogue", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def sources():
    src = os.path.join(ROOT, "src")
    for folder, _, files in os.walk(src):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path) as f:
                    yield os.path.relpath(path, ROOT).replace(os.sep, "/"), f.read()


def test_each_old_text_occurs_once_in_src():
    texts = dict(sources())
    mutants = catalogue()
    assert len({m.name for m in mutants}) == len(mutants) >= 8
    for m in mutants:
        assert m.file in texts, m.name
        assert m.old != m.new, m.name
        assert texts[m.file].count(m.old) == 1, m.name
        assert sum(t.count(m.old) for t in texts.values()) == 1, m.name


def test_each_test_id_names_a_test():
    for m in catalogue():
        assert m.tests, m.name
        for test_id in m.tests:
            path, *names = test_id.split("[")[0].split("::")
            with open(os.path.join(ROOT, path)) as f:
                text = f.read()
            *classes, function = names
            for name in classes:
                assert re.search(rf"^class {name}\b", text, re.M), test_id
            assert re.search(rf"^\s*def {function}\(", text, re.M), test_id
