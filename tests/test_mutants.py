"""The mutant catalogue cannot rot silently: each mutant's old text
occurs exactly once in src/, and each of its tests exists.  The mutants
themselves run only under mutants/run.py, outside this suite; here its
runner's choice of mutants is checked with the runs stubbed out."""

import importlib.util
import json
import os
import re
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def load(name, module_name):
    path = os.path.join(ROOT, "mutants", name)
    spec = importlib.util.spec_from_file_location(module_name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def catalogue():
    return load("catalogue.py", "mutant_catalogue").MUTANTS


def runner(monkeypatch, ran):
    """mutants/run.py with each mutant's run recorded, not started."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # it prepends mutants/
    module = load("run.py", "mutant_runner")
    sys.modules.pop("catalogue", None)
    monkeypatch.setattr(module, "run",
                        lambda mutant: ran.append(mutant.name) or "killed")
    return module


def test_an_unknown_name_is_refused_before_any_mutant_runs(monkeypatch,
                                                          capsys):
    ran = []
    known = catalogue()[0].name
    assert runner(monkeypatch, ran).main([known, "no-such-mutant"]) == 2
    out, err = capsys.readouterr()
    assert (out, ran) == ("", [])
    assert "no-such-mutant" in err and known not in err


def test_names_pick_the_mutants_and_none_picks_all(monkeypatch, capsys):
    names = [m.name for m in catalogue()]
    ran = []
    run = runner(monkeypatch, ran)
    assert run.main([names[2], names[0], names[2]]) == 0
    assert ran == [names[2], names[0]]
    assert json.loads(capsys.readouterr().out)["killed"] == ran
    ran.clear()
    assert run.main([]) == 0
    assert ran == names


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
