"""Raise-site census: which `raise` statements of src/relmag the tests reach.

Copies src/ to a temporary directory, writes a hit record before every
`raise` of the copy (src/ itself is never edited), runs the tests on the
copy and lists the sites no test reached.  Exits 1 when the tests fail,
when an unreached site is not in ALLOWED with the reason it cannot fire,
or when an ALLOWED entry names no unreached site.  From the repository
root: python tools/raise_census.py [pytest options]
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# (module, enclosing function, the raise statement): why no input reaches it
ALLOWED = {}


class Instrument(ast.NodeTransformer):
    """Puts before each raise a statement that appends its site to hits."""

    def __init__(self, module, source, hits):
        self.module, self.source, self.hits = module, source, hits
        self.func, self.sites = "", set()

    def visit_FunctionDef(self, node):
        outer, self.func = self.func, node.name
        self.generic_visit(node)
        self.func = outer
        return node

    def visit_Raise(self, node):
        text = " ".join(ast.get_source_segment(self.source, node).split())
        site = (self.module, self.func, text)
        self.sites.add(site)
        record = "with open(%r, 'a') as _census_fh: _census_fh.write(%r)" % (
            self.hits, repr(site) + "\n")
        return [ast.parse(record).body[0], node]


def main():
    sites, reached = set(), set()
    with tempfile.TemporaryDirectory() as tmp:
        copy, hits = Path(tmp) / "src", Path(tmp) / "hits"
        shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
        for path in sorted((copy / "relmag").glob("*.py")):
            source = path.read_text()
            instrument = Instrument(path.name, source, str(hits))
            tree = ast.fix_missing_locations(instrument.visit(ast.parse(source)))
            path.write_text(ast.unparse(tree))
            sites |= instrument.sites
        paths = [str(copy)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        pytest = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *sys.argv[1:]]
        code = subprocess.run(pytest, cwd=ROOT, env=env).returncode
        if hits.exists():
            with open(hits) as fh:
                reached = {ast.literal_eval(line) for line in fh}
    unreached = sites - reached
    print("raise census: %d of %d sites reached" % (len(sites & reached), len(sites)))
    for site in sorted(unreached):
        print("  %s %s(): %s -- %s" % (*site, ALLOWED.get(site, "NOT REACHED, NOT ALLOWED")))
    for site in sorted(ALLOWED.keys() - unreached):
        print("  stale allowlist entry: %s %s(): %s" % site)
    # no hit at all means the tests did not import the instrumented copy
    return int(code != 0 or not reached or bool(unreached ^ ALLOWED.keys()))


if __name__ == "__main__":
    sys.exit(main())
