"""Golden bytes of the command line: every subcommand and `what` runs on
tiny seeded inputs, and the sha256 of its exit code, stdout, stderr and
every file it writes must stay exactly as recorded.

Paths are relative to the test's working directory, so the `out` and
`source` fields of the config echoes are the same on every machine.
Cases run in order; later ones read the files earlier ones wrote.
"""
import hashlib
import re
from pathlib import Path

from deltagrid.cli import main

CASES = [
    ("gen cantor", "gen cantor --n 8 --out k.gs1"),
    ("gen cantor levels", "gen cantor --n 8 --base 3 --digits 0,2 --levels 3 --out c3.gs1"),
    ("gen interval", "gen interval --n 6 --a 1/4 --b 3/4 --out i.gs1"),
    ("gen interval short", "gen interval --n 6 --a 0 --b 1/8 --out j.gs1"),
    ("gen frostman", "gen frostman --n 8 --kappa 0.5 --seed 3 --out f.gs1"),
    ("gen frostman no kappa", "gen frostman --n 8 --out x.gs1"),
    ("gen square", "gen square --n 4 --out sq.gs2"),
    ("gen square sets", "gen square --n 6 --set i.gs1 --set2 j.gs1 --out r.gs2"),
    ("gen square 2d set", "gen square --n 4 --set sq.gs2 --out x.gs2"),
    ("gen no out", "gen cantor --n 8"),
    ("gen interval from n", "gen interval --n 2 --out a.gs1"),
    ("op sum", "op sum --set i.gs1 --set2 j.gs1 --out s.gs1"),
    ("op sum self cover", "op sum --set k.gs1 --semantics cover --out sc.gs1"),
    ("op diff", "op diff --set i.gs1 --set2 j.gs1 --out d.gs1"),
    ("op dilate", "op dilate --set i.gs1 --factor 3/2 --out dl.gs1"),
    ("op dilate no factor", "op dilate --set i.gs1 --out x.gs1"),
    ("op nfold", "op nfold --set j.gs1 --count 3 --out nf.gs1"),
    ("op product", "op product --set i.gs1 --count 2 --out pr.gs1"),
    ("op reflect", "op reflect --set j.gs1 --out rf.gs1"),
    ("op graphsum", "op graphsum --set r.gs2 --factor 1/2 --semantics cover --out gs.gs1"),
    ("op graphsum index", "op graphsum --set r.gs2 --factor 2 --semantics index --out gi.gs1"),
    ("op graphsum no factor", "op graphsum --set r.gs2 --out x.gs1"),
    ("op sum 2d set", "op sum --set sq.gs2 --out x.gs1"),
    ("op graphsum 1d set", "op graphsum --set i.gs1 --factor 1 --out x.gs1"),
    ("measure uniform", "measure uniform --set k.gs1 --out m.dm1"),
    ("measure uniform 2d", "measure uniform --set sq.gs2 --out x.dm1"),
    ("measure uniform no input", "measure uniform --out x.dm1"),
    ("measure frostman set", "measure frostman --set k.gs1 --kappa 0.5 --out fs.csv"),
    ("measure frostman measure", "measure frostman --measure m.dm1 --set sq.gs2 --kappa 0.5 --out fm.csv"),
    ("measure frostman 2d", "measure frostman --set sq.gs2 --kappa 1 --out f2.csv"),
    ("measure frostman no out", "measure frostman --set f.gs1 --kappa 0.5"),
    ("measure frostman no kappa", "measure frostman --set k.gs1"),
    ("measure frostman no input", "measure frostman --kappa 0.5"),
    ("measure energy set", "measure energy --set k.gs1 --sigma 0.5 --out es.csv"),
    ("measure energy measure", "measure energy --measure m.dm1 --sigma 0.5 --method direct --out em.csv"),
    ("measure energy 2d", "measure energy --set sq.gs2 --sigma 1 --out e2.csv"),
    ("measure energy binned", "measure energy --set f.gs1 --sigma 0.3 --method binned"),
    ("measure energy no input", "measure energy --sigma 0.5"),
    ("measure maximal", "measure maximal --measure m.dm1 --kappa 0.5"),
    ("measure maximal set", "measure maximal --set f.gs1 --kappa 0.5"),
    ("measure maximal 2d", "measure maximal --set sq.gs2 --kappa 0.5"),
    ("measure maximal no kappa", "measure maximal --measure m.dm1"),
    ("measure rescale", "measure rescale --measure m.dm1 --kappa 0.5 --out z.dm1"),
    ("measure rescale no kappa", "measure rescale --measure m.dm1 --out x.dm1"),
    ("measure prune", "measure prune --measure m.dm1 --sigma 0.5 --out p.gs1"),
    ("measure prune loose", "measure prune --set f.gs1 --sigma 0.2 --L 1.5 --loose"),
    ("measure prune 2d", "measure prune --set sq.gs2 --sigma 0.5"),
    ("measure prune no sigma", "measure prune --measure m.dm1"),
    ("project shadow", "project shadow --set sq.gs2 --theta 0.3 --out sh.gs1"),
    ("project sweep", "project sweep --set r.gs2 --angles 8 --fraction 0.9 --out sw.csv"),
    ("project sweep kappa", "project sweep --set sq.gs2 --angles 8 --kappa 1 --threads 2 --out swk.csv"),
    ("project marstrand", "project marstrand --set r.gs2 --angles 8 --out ma.csv"),
    ("project marstrand no out", "project marstrand --set sq.gs2 --angles 4"),
    ("project kaufman", "project kaufman --set sq.gs2 --angles 8 --kappa 0.5"),
    ("project kaufman no kappa", "project kaufman --set sq.gs2 --angles 8"),
    ("project kaufman odd angles", "project kaufman --set sq.gs2 --angles 6 --kappa 1"),
    ("project 1d set", "project sweep --set i.gs1 --angles 4"),
    ("lattice blichfeldt", "lattice blichfeldt --set sq.gs2 --modulus 1/4 --out bl.csv"),
    ("lattice blichfeldt 1d", "lattice blichfeldt --set k.gs1 --modulus 1/8"),
    ("lattice collision", "lattice collision --set a.gs1 --vector 0.75,0.9 --radius 8 --out col.csv"),
    ("lattice collision 2d", "lattice collision --set sq.gs2"),
    ("verify addcomb", "verify addcomb --n 8 --cases 3 --max-cells 8 --span 32 --seed 1 --out v.csv"),
    ("verify graphproj", "verify addcomb --suite graphproj --n 8 --cases 4 --max-cells 6 --span 16"),
    ("experiment expander", "experiment expander --set k.gs1 --candidates 1:2 --xres 3 --kappa 0.5 --out ex.csv"),
    ("experiment expander default xres", "experiment expander --set f.gs1 --candidates 1/2:3/2"),
    ("experiment expander 2d", "experiment expander --set sq.gs2"),
    ("experiment renorm", "experiment renorm --set k.gs1 --kappa 0.5 --out rn.csv"),
    ("experiment renorm measure", "experiment renorm --set k.gs1 --measure m.dm1 --kappa 0.5"),
    ("experiment renorm no kappa", "experiment renorm --set k.gs1"),
    ("experiment nfold", "experiment nfold --set k.gs1 --count 3 --out nf.csv"),
    ("experiment projection", "experiment projection --set sq.gs2 --epsilon 0.1 --eta 0.1 "
                              "--angles 16 --nu-cells 8 --kappa 1 --out pj.csv"),
    ("experiment projection no eta", "experiment projection --set sq.gs2 --epsilon 0.1"),
    ("experiment projection 1d", "experiment projection --set k.gs1 --epsilon 0.1 --eta 0.1"),
    ("report", "report v.csv --out rep.csv"),
    ("report no out", "report pj.csv"),
    ("report no echo", "report k.gs1"),
    ("usage unknown command", "nonsense"),
    ("usage bad choice", "op nonsense --set i.gs1 --out x.gs1"),
    ("usage missing set", "project sweep --angles 4"),
]

# Messages whose wording may change; only their exit code and the flag
# they name are pinned.
LOOSE_STDERR = {"measure energy no sigma": "measure energy --set k.gs1"}
CASES += list(LOOSE_STDERR.items())

GOLDEN = {
    'gen cantor': '9271079c330bdbc3',
    'gen cantor levels': '53c63621de01e757',
    'gen interval': '613ed3b621f14639',
    'gen interval short': '61fcf762eb74016b',
    'gen frostman': 'a1171b0d26f1c581',
    'gen frostman no kappa': '0dd2a5f13fe47d8b',
    'gen square': 'a15c9d7694ff078a',
    'gen square sets': '104edfbbdff6eb81',
    'gen square 2d set': '3d0e74dd1c658012',
    'gen no out': '2e72a98a999edfac',
    'gen interval from n': '79bdaa3beeb16304',
    'op sum': 'e87d215bd02bf61f',
    'op sum self cover': 'd09b7d554c68cf67',
    'op diff': '0c4d5e9039042ec5',
    'op dilate': '0c2de5e175ab345f',
    'op dilate no factor': 'aa42bf9cc3be661f',
    'op nfold': '10969a60826bedb7',
    'op product': 'ef7aa3565f840586',
    'op reflect': '85725bc54dd86af9',
    'op graphsum': '6e4679073dfab54d',
    'op graphsum index': 'b899f1431d04f022',
    'op graphsum no factor': '60ef4a60fb611d7b',
    'op sum 2d set': '3d0e74dd1c658012',
    'op graphsum 1d set': 'f724e2d4511eadff',
    'measure uniform': '4417dab261333703',
    'measure uniform 2d': 'beaef8ab2eacd907',
    'measure uniform no input': 'fa088757840b44d8',
    'measure frostman set': 'bf5400706b47a494',
    'measure frostman measure': '2a72bd2d929f9282',
    'measure frostman 2d': '57ca64d3a039e768',
    'measure frostman no out': '3a0f18a336311fe3',
    'measure frostman no kappa': 'fab920c0d4c7874a',
    'measure frostman no input': 'fa088757840b44d8',
    'measure energy set': 'c22d865657bb4103',
    'measure energy measure': '4fc04cf43a04fce2',
    'measure energy 2d': '1753eabb1de15cb8',
    'measure energy binned': '02b1875e48ae580e',
    'measure energy no input': 'fa088757840b44d8',
    'measure maximal': 'c7c9d1c4a6c1c33f',
    'measure maximal set': 'dfc4834f8971f53c',
    'measure maximal 2d': 'beaef8ab2eacd907',
    'measure maximal no kappa': '75a6f497d243e738',
    'measure rescale': '4c732f535deded93',
    'measure rescale no kappa': '486b0a9562045c15',
    'measure prune': '8c6052cc5e480e37',
    'measure prune loose': '8bba42617b0b0df8',
    'measure prune 2d': 'beaef8ab2eacd907',
    'measure prune no sigma': '20decb7ffbff1e55',
    'project shadow': 'ced9368b83d06869',
    'project sweep': 'eca2d7ea198ba695',
    'project sweep kappa': '4003e6163b76384a',
    'project marstrand': '771471228adb4d21',
    'project marstrand no out': '4e37ae672b67c968',
    'project kaufman': 'e7373c1fa533d4b9',
    'project kaufman no kappa': '599add2b73e67954',
    'project kaufman odd angles': '8d4303d0a0a42c2f',
    'project 1d set': 'f724e2d4511eadff',
    'lattice blichfeldt': '0ab9f1b1f3120c23',
    'lattice blichfeldt 1d': 'e7258ef935402e36',
    'lattice collision': '734fe6ff949570cd',
    'lattice collision 2d': '3d0e74dd1c658012',
    'verify addcomb': 'ecdd765d1c299b7e',
    'verify graphproj': 'e14e69acc3915bb5',
    'experiment expander': '0addd18939a0195a',
    'experiment expander default xres': '1b18533d06f65012',
    'experiment expander 2d': '3d0e74dd1c658012',
    'experiment renorm': '67e4699f1df6e905',
    'experiment renorm measure': '207f149e1ece0020',
    'experiment renorm no kappa': 'fc9f91c11cf72441',
    'experiment nfold': 'faea419fefdb84b2',
    'experiment projection': '49ea6dfdb70b050f',
    'experiment projection no eta': 'b12e0cb8c749144b',
    'experiment projection 1d': '89748d1492686f84',
    'report': 'f6ff169e403402da',
    'report no out': '7336a11ce7bce7be',
    'report no echo': 'b2a9930f410355db',
    'usage unknown command': 'c7e6b0cfc184f33a',
    'usage bad choice': '802dcd3ce7d63efe',
    'usage missing set': 'b887a19411bca07e',
    'measure energy no sigma': '5a0a2b76858bf8cc',
}


def _files(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


def test_cli_outputs_are_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    got = {}
    for name, argv in CASES:
        before = _files(tmp_path)
        code = main(argv.split())
        out, err = capsys.readouterr()
        h = hashlib.sha256(f"{code}\n{out}\n".encode())
        if name in LOOSE_STDERR:
            assert code == 1 and re.match(r"error: measure energy requires --sigma\b", err), err
        else:
            h.update(err.encode())
        for fname, blob in _files(tmp_path).items():
            if before.get(fname) != blob:
                h.update(f"\n{fname}\n".encode() + blob)
        got[name] = h.hexdigest()[:16]
    assert got == GOLDEN
