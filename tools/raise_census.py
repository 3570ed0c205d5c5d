"""Raise-site census: which `raise` statements of src/relmag the tests reach.

Copies src/ to a temporary directory, writes a hit record before every
`raise` of the copy (src/ itself is never edited), runs the tests on the
copy and lists the sites no test reached.  Every raise statement is its
own site, keyed by its module, its enclosing function, its text and its
ordinal among the statements of that text in that function, so that a
site keeps its key when lines move.  Exits 1 when the tests fail, when
the sites are not as many as the raise statements, when an unreached
site is not in ALLOWED with the reason it cannot fire, or when an
ALLOWED entry names no unreached site.  From the repository root:
python tools/raise_census.py [pytest options]
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# (module, enclosing function, the raise statement, its 1-based ordinal
# among the identical ones of that function): why no input reaches it
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
        same = sum(site[:3] == (self.module, self.func, text) for site in self.sites)
        site = (self.module, self.func, text, same + 1)
        self.sites.add(site)
        record = "with open(%r, 'a') as _census_fh: _census_fh.write(%r)" % (
            self.hits, repr(site) + "\n")
        return [ast.parse(record).body[0], node]


def main():
    sites, reached, raises = set(), set(), 0
    with tempfile.TemporaryDirectory() as tmp:
        copy, hits = Path(tmp) / "src", Path(tmp) / "hits"
        shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
        for path in sorted((copy / "relmag").glob("*.py")):
            source = path.read_text()
            tree = ast.parse(source)
            raises += sum(isinstance(node, ast.Raise) for node in ast.walk(tree))
            instrument = Instrument(path.name, source, str(hits))
            path.write_text(ast.unparse(ast.fix_missing_locations(instrument.visit(tree))))
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
    if len(sites) != raises:
        print("  %d sites for %d raise statements" % (len(sites), raises))
    for site in sorted(unreached):
        print("  %s %s(): %s (#%d) -- %s" % (*site, ALLOWED.get(site, "NOT REACHED, NOT ALLOWED")))
    for site in sorted(ALLOWED.keys() - unreached):
        print("  stale allowlist entry: %s %s(): %s (#%d)" % site)
    # no hit at all means the tests did not import the instrumented copy
    return int(code != 0 or not reached or len(sites) != raises or bool(unreached ^ ALLOWED.keys()))


if __name__ == "__main__":
    sys.exit(main())
