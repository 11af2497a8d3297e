"""Every subcommand at the edges of its input domain ends cleanly: exit
code 0, or exit code 1 with an `error:` line, and never an escaped
exception such as a MemoryError from an array sized before its guard.
Rows in SUCCEED must exit 0, and rows in REFUSE must end with the
`error:` line.

One child process caps its own address space at 1 GiB, so an allocation
that a guard should have refused fails there instead of on the host, and
runs the whole table through `deltagrid.cli.main`.
"""
import json
import os
import subprocess
import sys
import textwrap

MAX_INDEX = 1 << 62
MAX_SPAN = 1 << 26
BIG = 1 << 30

FILES = {
    "one.gs1": "GS1 v1\nn=4\noffset=3\n3-3\n",
    "a.gs1": "GS1 v1\nn=2\noffset=0\n0-3\n",
    "sq.gs2": "GS2 v1\nn=2\noffset=0,0\nrows=4\n" + "".join(f"row={j}:0-3\n" for j in range(4)),
    "empty.gs1": "",
    "trunc.gs1": "GS1 v1\nn=4\n",
    "trunc.gs2": "GS2 v1\nn=4\noffset=0,0\nrows=3\nrow=0:0-",
    "empty.dm1": "",
    "trunc.dm1": "DM1 v1\nn=4\n",
    "empty.csv": "",
    "trunc.csv": '# {"seed": 0}\n',
    "latin1.gs1": "GS1 v1\nn=4\noffset=0\n0-\xff\n",
    "latin1.dm1": "DM1 v1\nn=4\noffset=0\n0 \xff\n",
    "latin1.csv": "# {}\n\xff,\xfe\n",
    "iso.gs1": "GS1 v1\nn=9\noffset=0\n" + "".join(f"{i}-{i}\n" for i in range(0, 2828, 2)),
    "c20.gs1": "GS1 v1\nn=20\noffset=0\n0-0\n",
    # two cells on either side of 1/2 at n = 30
    "two30.gs1": f"GS1 v1\nn=30\noffset={2**29 - 1}\n{2**29 - 1}-{2**29}\n",
    # [1, 9/8) u [5/4, 11/8) u [15/8, 2) at n = 24: three runs of 2**21 cells
    "k24.gs1": "GS1 v1\nn=24\noffset=16777216\n16777216-18874367\n20971520-23068671\n"
               "31457280-33554431\n",
    # 40 cells in four runs at the ends of a 2 x 2**25 box
    "wide.gs2": "GS2 v1\nn=25\noffset=0,0\nrows=2\n" + "".join(
        f"row={j}:{a}-{a + 9}\n" for j in (0, 1) for a in (0, (1 << 25) - 10)),
}

CASES = [
    # n = 30
    "gen interval --n 30 --a 0 --b 1 --out x.gs1",
    "gen interval --n 30 --a 0 --b 1/8 --out x.gs1",
    f"gen interval --n 30 --a 0 --b 1/{BIG} --out p30.gs1",
    "gen cantor --n 30 --out x.gs1",
    "gen frostman --n 30 --kappa 0.5 --out x.gs1",
    "gen square --n 30 --set p30.gs1 --out p30.gs2",
    "experiment expander --set one.gs1 --xres 30 --candidates 1:2",
    f"verify addcomb --n 30 --cases 2 --span {BIG}",
    "project sweep --set p30.gs2 --angles 4",
    # endpoints near +-MAX_INDEX
    f"gen interval --n 0 --a {MAX_INDEX - 4} --b {MAX_INDEX - 1} --out hi.gs1",
    f"gen interval --n 0 --a {-MAX_INDEX + 8} --b {-MAX_INDEX + 11} --out lo.gs1",
    f"gen interval --n 0 --a {MAX_INDEX - 4} --b {MAX_INDEX + 1} --out x.gs1",
    "op sum --set hi.gs1 --out x.gs1",
    "op diff --set hi.gs1 --set2 lo.gs1 --out x.gs1",
    "op reflect --set lo.gs1 --out x.gs1",
    "op dilate --set hi.gs1 --factor 2 --out x.gs1",
    "op nfold --set lo.gs1 --count 3 --out x.gs1",
    "op product --set hi.gs1 --out x.gs1",
    "gen square --n 0 --set hi.gs1 --set2 lo.gs1 --out hl.gs2",
    "project shadow --set hl.gs2 --theta 0.7 --out x.gs1",
    "measure frostman --set hi.gs1 --kappa 0.5",
    "measure energy --set hl.gs2 --sigma 0.5",
    "lattice blichfeldt --set hl.gs2",
    # spans at MAX_SPAN and MAX_SPAN + 1
    "gen interval --n 26 --a 0 --b 1 --out span.gs1",
    f"gen interval --n 26 --a 0 --b {MAX_SPAN + 1}/{MAX_SPAN} --out x.gs1",
    "op sum --set span.gs1 --out x.gs1",
    "op reflect --set span.gs1 --out x.gs1",
    "gen interval --n 26 --a 0 --b 1/2 --out half.gs1",
    "op sum --set half.gs1 --out x.gs1",
    # an expander sweep whose dilations each add a run length of 2**20+ cells
    "gen interval --n 20 --a 0 --b 1 --out i20.gs1",
    "experiment expander --set i20.gs1 --xres 4",
    # gen square beyond the cap
    "gen square --n 13 --out x.gs2",
    "gen square --n 14 --out x.gs2",
    "gen square --n 16 --out x.gs2",
    # factors at 2**30
    f"op dilate --set a.gs1 --factor {BIG} --out x.gs1",
    f"op dilate --set a.gs1 --factor 1/{BIG} --out x.gs1",
    f"op graphsum --set sq.gs2 --factor {BIG} --out x.gs1",
    f"op graphsum --set sq.gs2 --factor {BIG} --semantics cover --out x.gs1",
    f"experiment expander --set a.gs1 --xres 0 --candidates 1:{BIG}",
    f"lattice blichfeldt --set sq.gs2 --modulus 1/{BIG}",
    f"lattice blichfeldt --set sq.gs2 --modulus {BIG}",
    # empty and truncated files
    "op reflect --set empty.gs1 --out x.gs1",
    "op reflect --set trunc.gs1 --out x.gs1",
    "project sweep --set trunc.gs2",
    "measure energy --set empty.gs1 --sigma 0.5",
    "measure energy --measure empty.dm1 --sigma 0.5",
    "measure maximal --measure trunc.dm1 --kappa 0.5",
    "report trunc.csv",
    "op reflect --set missing.gs1 --out x.gs1",
    "report .",
    "op reflect --set latin1.gs1 --out x.gs1",
    "measure energy --measure latin1.dm1 --sigma 0.5",
    "report latin1.csv",
    # outputs the command needs
    "measure uniform --set a.gs1",
    "measure rescale --set a.gs1 --kappa 0.5",
    "project shadow --set sq.gs2",
    # a set of 3,540 cells in 807 runs: both slab caps refuse it at once
    "gen frostman --n 14 --kappa 0.8 --seed 3 --out f14.gs1",
    # the zoom of two30.gs1 is 2 cells at n = 30; the sweep's dilations are refused
    "experiment renorm --set two30.gs1 --kappa 0.01",
]

# Images of long runs, built one range per run (per pair of runs for
# products): each once sized int64 arrays per cell (per pair of cells) and
# ran out of memory, so each must succeed.  The product of a set of 7,427
# runs once sized its run pairs at once (421 MiB per array).
SUCCEED = [
    "gen interval --n 12 --a 1 --b 2 --out i12.gs1",
    "op product --set i12.gs1 --out x.gs1",
    "gen frostman --n 18 --kappa 0.8 --seed 3 --out f18.gs1",
    "op product --set f18.gs1 --out x.gs1",
    "gen interval --n 24 --a 0 --b 1 --out i24.gs1",
    "op dilate --set i24.gs1 --factor 3 --out x.gs1",
    "op dilate --set span.gs1 --factor 1/2 --out x.gs1",
    # a column of 2**20 rows, written a block of rows at a time
    "gen square --n 20 --set c20.gs1 --set2 i20.gs1 --out tall.gs2",
    # the level-0 window of a measure at n = 30, zoomed by index, not as a set
    "measure rescale --set two30.gs1 --kappa 0.01 --out x.dm1",
    # a square of MAX_SPAN cells, read back by painting its runs a block at a time
    "gen square --n 13 --out sq13.gs2",
    "project shadow --set sq13.gs2 --theta 0.3 --out y.gs1",
    # 2**22 distinct residues of 2**23 cells, found by one integer sort (a
    # sort of the rows as a void dtype took about 28 s)
    "gen interval --n 23 --a 0 --b 1 --out i23.gs1",
    "lattice blichfeldt --set i23.gs1 --modulus 1/2",
    # nine run pairs over 3 * 2**24 cells: sorted and painted, not counted
    # in int64 arrays over the span (which ran out of memory)
    "op product --set k24.gs1 --out x.gs1",
    # 64 angles of a 40-cell set: only the nonempty fibers are sorted
    "project sweep --set wide.gs2 --angles 64",
]

# Flag values outside a command's domain, each refused before any work
REFUSE = [
    "lattice collision --set f14.gs1",
    "lattice collision --set a.gs1 --radius inf",
    # 1,414 isolated cells: a slab too small for |v|_1 * diam A, refused
    # before the 2,000,000 run pairs of the exact projection measure
    "lattice collision --set iso.gs1 --vector 0.75,0.8 --radius 1.5",
    "verify addcomb --max-cells 0",
    "verify addcomb --span -1",
    "verify addcomb --span 0",
    "verify addcomb --cases -1",
    "project sweep --set sq.gs2 --angles 0",
    "project sweep --set sq.gs2 --angles -3",
    "measure maximal --set a.gs1 --kappa nan",
    "measure rescale --set a.gs1 --kappa nan --out x.dm1",
    # angle grids past MAX_SPAN cells, refused before they are filled
    "experiment projection --set sq.gs2 --epsilon 0.1 --eta 0.1 --nu-cells 134217728",
    "project kaufman --set sq.gs2 --kappa 0.5 --angles 134217728",
    "experiment projection --set sq.gs2 --epsilon 0.1 --eta 0.1 --nu-cells 1073741824",
    "project kaufman --set sq.gs2 --kappa 0.5 --angles 1073741824",
    # angle counts past the angle cap, refused before any angle array is made
    "project sweep --set sq.gs2 --angles 1000000000",
    "project marstrand --set sq.gs2 --angles 1000000000",
    "experiment projection --set sq.gs2 --epsilon 0.1 --eta 0.1 --angles 1000000000",
    "project kaufman --set sq.gs2 --kappa 0.5 --angles 67108864",
    "experiment projection --set sq.gs2 --epsilon 0.1 --eta 0.1 --nu-cells 67108864",
    # flag values their parsers refuse, and a report with no header row
    "op dilate --set a.gs1 --factor abc --out x.gs1",
    "op dilate --set a.gs1 --factor 1/0 --out x.gs1",
    "experiment expander --set a.gs1 --candidates 1-2",
    "gen cantor --digits a,b --out x.gs1",
    "lattice collision --set a.gs1 --vector x,y",
    "report empty.csv",
    # 1D measure tools on a 2D set of MAX_SPAN cells, refused before its
    # uniform measure is built
    "measure uniform --set sq13.gs2 --out x.dm1",
    "measure maximal --set sq13.gs2 --kappa 0.5",
    "measure rescale --set sq13.gs2 --kappa 0.5 --out x.dm1",
    "measure prune --set sq13.gs2 --sigma 0.5",
    # exponents past their domains: kappa in [-32, 32], s in (0, 32], eta in
    # [0, 32], each refused before r**kappa, 2**(j*kappa/2) or delta**-s
    # overflows or returns inf
    "measure maximal --set a.gs1 --kappa 1500",
    "measure rescale --set a.gs1 --kappa 1500 --out x.dm1",
    "experiment renorm --set a.gs1 --kappa 1500",
    "measure frostman --set a.gs1 --kappa -1500",
    "experiment expander --set a.gs1 --kappa -1500",
    "measure frostman --set sq.gs2 --kappa 1500",
    "measure energy --set sq.gs2 --sigma 1500",
    "measure energy --set a.gs1 --sigma 1500 --method binned",
    "measure energy --set a.gs1 --sigma 1500",
    "measure prune --set a.gs1 --sigma 1500",
    "project sweep --set sq.gs2 --angles 8 --kappa 1500",
    # on the MAX_SPAN square, before its uniform measure (512 MiB of weights)
    "project sweep --set sq13.gs2 --angles 3 --kappa 1500",
    "measure frostman --set sq13.gs2 --kappa 1500",
    "experiment projection --set sq.gs2 --epsilon 0.1 --eta 1500",
    "lattice collision --set a.gs1 --radius 1e308",
    "lattice collision --set a.gs1 --radius 1e10",
    # integer flags and seeds past their domains
    "lattice blichfeldt --set a.gs1 --modulus 4611686018427387904",
    "lattice blichfeldt --set a.gs1 --modulus 1e308",
    "verify addcomb --cases 2 --seed -1",
    "gen frostman --kappa 0.5 --seed -1 --out x.gs1",
    "verify addcomb --cases 2 --span 100000000000000000000",
    "verify addcomb --cases 2 --max-cells 100000000000000000000",
    "gen cantor --levels 1000000000000000000000000000000 --out x.gs1",
    "gen cantor --levels 1000000000000000000000000000000 --digits 0 --out x.gs1",
    # the 2-fold sum of the 2-fold product spans 3 * 2**25 cells, past MAX_SPAN
    "experiment nfold --set k24.gs1 --count 2",
]

CHILD = textwrap.dedent("""
    import contextlib, io, json, resource, sys, time
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    from deltagrid.cli import main
    results = []
    for argv in json.load(sys.stdin):
        err = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv.split())
        except BaseException as exc:
            code = f"escaped {type(exc).__name__}: {exc}"[:200]
        results.append([argv, code, err.getvalue(), time.perf_counter() - t0])
    json.dump(results, sys.__stdout__)
""")


def test_edge_arguments_end_in_a_clean_exit(tmp_path):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text, encoding="latin-1")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run([sys.executable, "-c", CHILD],
                          input=json.dumps(CASES + SUCCEED + REFUSE),
                          capture_output=True, text=True, cwd=tmp_path, env=env,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    bad = []
    for argv, code, err, seconds in json.loads(proc.stdout):
        refused = code == 1 and err.startswith("error: ")
        clean = (code == 0 if argv in SUCCEED else refused if argv in REFUSE
                 else code == 0 or refused)
        if not clean or seconds > 10:
            bad.append((argv, code, err[:120], round(seconds, 2)))
    assert bad == []
