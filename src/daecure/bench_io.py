"""Benchmark generators and file exchange.

Generators produce structured, provably stable descriptor test systems
deterministically from a seed.  Exchange uses Matrix-Market files for the
matrices plus a small JSON manifest describing the structure; results are
written as CSV tables (frequency response, H2 history), Matrix-Market ROM
matrices and a JSON report.
"""

import csv
import hashlib
import json
import os

import numpy as np
import scipy.io as spio
import scipy.linalg as spla
import scipy.sparse as sps

from . import daemodel as dm
from .errors import InvalidEntries, ParseError, StructureViolation

MANIFEST_VERSION = 1

#: largest order the index-1 generator densifies for its exact checks
GEN_DENSE_LIMIT = 600


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _random_sparse(rng, rows, cols, density, scale=1.0):
    nnz = max(1, int(round(density * rows * cols)))
    ri = rng.integers(0, rows, size=nnz)
    ci = rng.integers(0, cols, size=nnz)
    vals = scale * rng.standard_normal(nnz)
    return sps.csc_matrix((vals, (ri, ci)), shape=(rows, cols))


def gen_semi_explicit_index1(n1, n2, seed, m=1, p=1) -> dm.DaeSystem:
    """Stable semi-explicit index-1 system with E11 = I, E12 = 0.

    A11 is a shifted negative-definite tridiagonal plus a random sparse
    perturbation whose norm is guarded against destabilizing the block;
    A22 is made strictly diagonally dominant (hence nonsingular).
    Deterministic for fixed sizes and seed.
    """
    if n1 < 1 or n2 < 1:
        raise StructureViolation("need n1 >= 1 and n2 >= 1")
    rng = np.random.default_rng(seed)
    main = -2.0 * np.ones(n1) - rng.uniform(0.5, 1.5, size=n1)
    off = rng.uniform(0.2, 0.9, size=n1 - 1)
    A11 = sps.diags([off, main, off], [-1, 0, 1], format="csc")
    pert = _random_sparse(rng, n1, n1, 0.05)
    # guard: keep the perturbation well inside the stability margin of A11
    margin = -float(spla.eigvalsh((A11 + A11.T).toarray() / 2).max())
    pnorm = spla.norm(pert.toarray(), 2) if n1 <= GEN_DENSE_LIMIT else \
        np.linalg.norm(pert.toarray())
    if pnorm > 0.4 * margin:
        pert = pert * (0.4 * margin / pnorm)
    A11 = (A11 + 0.5 * (pert - pert.T) + 0.5 * (pert + pert.T)).tocsc()
    # re-shift so the symmetric part stays negative definite
    wmax = float(spla.eigvalsh((A11 + A11.T).toarray() / 2).max())
    if wmax > -0.1:
        A11 = (A11 - (wmax + 0.5) * sps.eye(n1)).tocsc()

    A22d = _random_sparse(rng, n2, n2, min(1.0, 4.0 / n2)).toarray()
    rowsum = np.abs(A22d).sum(axis=1)
    np.fill_diagonal(A22d, np.sign(rng.standard_normal(n2)) *
                     (rowsum + rng.uniform(1.0, 2.0, size=n2)))
    A22 = sps.csc_matrix(A22d)

    A12 = _random_sparse(rng, n1, n2, 0.05, scale=0.3)
    A21 = _random_sparse(rng, n2, n1, 0.05, scale=0.3)
    E = sps.block_diag([sps.eye(n1), sps.csc_matrix((n2, n2))]).tocsc()
    A = sps.bmat([[A11, A12], [A21, A22]]).tocsc()
    B = sps.vstack([_random_sparse(rng, n1, m, 0.3),
                    _random_sparse(rng, n2, m, 0.3)]).tocsc()
    C = sps.hstack([_random_sparse(rng, p, n1, 0.3),
                    _random_sparse(rng, p, n2, 0.3)]).tocsc()
    sys = dm.DaeSystem(E, A, B, C, np.zeros((p, m)),
                       dm.SemiExplicitIndex1(n1))
    if n1 + n2 <= GEN_DENSE_LIMIT:
        w = spla.eigvals(A.toarray(), E.toarray())
        finite = w[np.isfinite(w)]
        if finite.size and finite.real.max() >= 0:
            # extremely unlikely with the guard; shift the dynamic block
            shift = finite.real.max() + 0.5
            A11s = (A11 - shift * sps.eye(n1)).tocsc()
            A = sps.bmat([[A11s, A12], [A21, A22]]).tocsc()
            sys = dm.DaeSystem(E, A, B, C, np.zeros((p, m)),
                               dm.SemiExplicitIndex1(n1))
    return sys


def gen_stokes_index2(m, seed, n_in=1, n_out=1) -> dm.DaeSystem:
    """Finite-difference Stokes-like index-2 saddle-point system.

    Velocity block: discrete vector Laplacian on an m x m grid (two
    components); pressure coupling: discrete gradient/divergence pair with
    one pressure unknown pinned so the pressure Schur complement A21 A12
    is nonsingular.  B and C touch only velocity unknowns, so the
    transfer function is strictly proper.
    """
    if m < 3:
        raise StructureViolation("need grid size m >= 3")
    rng = np.random.default_rng(seed)
    N = m * m
    h = 1.0 / (m + 1)
    L1 = sps.diags([np.ones(m - 1), -2.0 * np.ones(m), np.ones(m - 1)],
                   [-1, 0, 1]) / h ** 2
    I = sps.eye(m)
    lap = (sps.kron(I, L1) + sps.kron(L1, I)).tocsc()   # Dirichlet Laplacian
    A11 = sps.block_diag([lap, lap]).tocsc()            # two velocity comps

    # one-sided difference gradient in each direction, acting on pressure
    D1 = sps.diags([-np.ones(m), np.ones(m - 1)], [0, 1]) / h
    Gx = sps.kron(I, D1).tocsc()
    Gy = sps.kron(D1, I).tocsc()
    A12_full = sps.vstack([Gx, Gy]).tocsc()             # (2N, N) gradient
    keep = np.arange(1, N)                              # pin pressure dof 0
    A12 = A12_full[:, keep].tocsc()
    A21 = A12.T.tocsc()

    n_v, n_p = 2 * N, N - 1
    E = sps.block_diag([sps.eye(n_v), sps.csc_matrix((n_p, n_p))]).tocsc()
    A = sps.bmat([[A11, A12], [A21, None]]).tocsc()
    B = sps.vstack([_random_sparse(rng, n_v, n_in, min(1.0, 8.0 / n_v)),
                    sps.csc_matrix((n_p, n_in))]).tocsc()
    C = sps.hstack([_random_sparse(rng, n_out, n_v, min(1.0, 8.0 / n_v)),
                    sps.csc_matrix((n_out, n_p))]).tocsc()
    return dm.DaeSystem(E, A, B, C, np.zeros((n_out, n_in)),
                        dm.StokesIndex2(n_v, n_p))


# ---------------------------------------------------------------------------
# manifest read/write
# ---------------------------------------------------------------------------

def _tag_to_json(tag):
    if isinstance(tag, dm.SemiExplicitIndex1):
        return {"kind": "semi_explicit_index1", "n1": tag.n1}
    if isinstance(tag, dm.StokesIndex2):
        return {"kind": "stokes_index2", "n_v": tag.n_v, "n_p": tag.n_p}
    raise StructureViolation(f"unknown structure tag {tag!r}")


def _integer(value, what):
    """A manifest entry that must be an integer (a JSON integer, or a
    number with an integral value)."""
    if (isinstance(value, int) and not isinstance(value, bool)) \
            or (isinstance(value, float) and value.is_integer()):
        return int(value)
    raise ParseError(f"manifest: {what} must be an integer, got {value!r}")


def _tag_from_json(obj):
    try:
        kind = obj["kind"]
    except (TypeError, KeyError):
        raise ParseError("manifest: structure entry must have a 'kind'")
    fields = {"semi_explicit_index1": (dm.SemiExplicitIndex1, ("n1",)),
              "stokes_index2": (dm.StokesIndex2, ("n_v", "n_p"))}
    if not isinstance(kind, str) or kind not in fields:
        raise ParseError(f"manifest: unknown structure kind {kind!r}")
    tag, keys = fields[kind]
    missing = [key for key in keys if key not in obj]
    if missing:
        raise ParseError(f"manifest: structure {kind!r} needs {missing}")
    return tag(*(_integer(obj[key], f"structure.{key}") for key in keys))


def _permutation(value, n, what):
    """The 0-based permutation of range(n) given as ``value``, or the
    identity when it is absent."""
    if value is None:
        return np.arange(n)
    perm = [_integer(v, f"{what} entry") for v in value] \
        if isinstance(value, list) else None
    if perm is None or sorted(perm) != list(range(n)):
        raise ParseError("manifest: permutations must be 0-based "
                         "permutations of the state indices")
    return np.asarray(perm, dtype=int)


def write_system(sys: dm.DaeSystem, outdir, name="system"):
    """Write E, A, B, C (and D if nonzero) as Matrix-Market plus a JSON
    manifest; returns the manifest path."""
    os.makedirs(outdir, exist_ok=True)
    files = {}
    for key, mat in (("E", sys.E), ("A", sys.A), ("B", sys.B), ("C", sys.C)):
        fn = f"{name}_{key}.mtx"
        spio.mmwrite(os.path.join(outdir, fn), mat)
        files[key] = fn
    if np.any(sys.D):
        fn = f"{name}_D.mtx"
        spio.mmwrite(os.path.join(outdir, fn), np.atleast_2d(sys.D))
        files["D"] = fn
    manifest = {
        "version": MANIFEST_VERSION,
        "name": name,
        "n": sys.n, "m": sys.m, "p": sys.p,
        "structure": _tag_to_json(sys.structure),
        "files": files,
    }
    path = os.path.join(outdir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return path


def _read_mtx(base, fn, what):
    """The Matrix-Market matrix in ``fn``; InvalidEntries unless every
    entry is a finite real number."""
    path = os.path.join(base, fn)
    try:
        mat = spio.mmread(path)
    except OSError as exc:
        raise ParseError(f"cannot read {what} file {path}: {exc}")
    except ValueError as exc:
        raise ParseError(f"malformed Matrix-Market file {path}: {exc}")
    values = mat.data if sps.issparse(mat) else np.asarray(mat)
    if np.iscomplexobj(values):
        raise InvalidEntries(f"{what} file {path} holds complex entries")
    if not np.all(np.isfinite(values)):
        raise InvalidEntries(f"{what} file {path} holds NaN or infinite "
                             "entries")
    return mat


def read_system(manifest_path) -> dm.DaeSystem:
    """Parse a manifest, load the Matrix-Market matrices and validate the
    declared structure.  Optional 'row_perm'/'col_perm' entries reorder the
    loaded matrices (0-based index lists); they need a square E and A
    that B and C fit, else StructureViolation.  A 'files' key other than
    E, A, B, C and D is a ParseError, before any matrix is read; a
    declared n, m, p or index-1 structure.n2 = n - n1 that the matrices
    do not have, a StructureViolation."""
    try:
        with open(manifest_path) as fh:
            man = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read manifest {manifest_path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"manifest {manifest_path}: line {exc.lineno}, column "
            f"{exc.colno}: {exc.msg}"
        )
    if not isinstance(man, dict):
        raise ParseError(f"manifest {manifest_path}: must be a JSON object")
    base = os.path.dirname(os.path.abspath(manifest_path))
    files = man.get("files")
    if not isinstance(files, dict):
        raise ParseError("manifest: missing 'files' table")
    for key in ("E", "A", "B", "C"):
        if key not in files:
            raise ParseError(f"manifest: missing file entry for {key}")
    for key, fn in files.items():
        if key not in ("E", "A", "B", "C", "D"):
            raise ParseError(f"manifest: unknown file entry {key!r}")
        if not isinstance(fn, str):
            raise ParseError(f"manifest: file entry for {key} must be a "
                             "file name")
    E = sps.csc_matrix(_read_mtx(base, files["E"], "E"))
    A = sps.csc_matrix(_read_mtx(base, files["A"], "A"))
    B = sps.csc_matrix(_read_mtx(base, files["B"], "B"))
    C = sps.csc_matrix(_read_mtx(base, files["C"], "C"))
    if "D" in files:
        D = np.atleast_2d(np.asarray(
            sps.csc_matrix(_read_mtx(base, files["D"], "D")).toarray(),
            dtype=float))
    else:
        D = np.zeros((C.shape[0], B.shape[1]))
    if man.get("row_perm") is not None or man.get("col_perm") is not None:
        n = E.shape[0]
        # indexing by a permutation of range(n) would cut a longer side
        if E.shape != (n, n) or A.shape != (n, n) or B.shape[0] != n \
                or C.shape[1] != n:
            raise StructureViolation(
                f"E {E.shape}, A {A.shape}, B {B.shape} and C {C.shape} "
                "do not share one state dimension")
        rp = _permutation(man.get("row_perm"), n, "row_perm")
        cp = _permutation(man.get("col_perm"), n, "col_perm")
        E = E[rp][:, cp].tocsc()
        A = A[rp][:, cp].tocsc()
        B = B[rp].tocsc()
        C = C[:, cp].tocsc()
    tag = _tag_from_json(man.get("structure"))
    n = E.shape[0]
    sizes = {"n": (man.get("n"), n, f"E is {n} x {E.shape[1]}"),
             "m": (man.get("m"), B.shape[1], f"B has {B.shape[1]} columns"),
             "p": (man.get("p"), C.shape[0], f"C has {C.shape[0]} rows")}
    if isinstance(tag, dm.SemiExplicitIndex1):
        sizes["structure.n2"] = (man["structure"].get("n2"), n - tag.n1,
                                 f"n - n1 = {n - tag.n1}")
    for key, (decl, size, what) in sizes.items():
        if decl is not None and _integer(decl, key) != size:
            raise StructureViolation(
                f"manifest declares {key} = {decl} but {what}")
    return dm.DaeSystem(E, A, B, C, D, tag)


def select_channel(sys: dm.DaeSystem, out_idx, in_idx) -> dm.DaeSystem:
    """SISO sub-system picking one input and one output channel."""
    if not (0 <= in_idx < sys.m and 0 <= out_idx < sys.p):
        raise StructureViolation(
            f"channel ({out_idx}, {in_idx}) out of range for a "
            f"{sys.p} x {sys.m} system"
        )
    return dm.DaeSystem(sys.E, sys.A, sys.B[:, [in_idx]],
                        sys.C[[out_idx], :],
                        sys.D[[out_idx]][:, [in_idx]], sys.structure)


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

def content_hash(paths):
    """Stable SHA-256 over the contents of the given files."""
    h = hashlib.sha256()
    for path in sorted(str(p) for p in paths):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def write_freq_response(path, omegas, values):
    """CSV with columns omega, then re/im/magnitude_db per channel.

    ``values`` is an array of shape (len(omegas), p, m).
    """
    values = np.asarray(values)
    _, p, m = values.shape
    header = ["omega"]
    for i in range(p):
        for j in range(m):
            tag = f"_{i + 1}{j + 1}" if p * m > 1 else ""
            header += [f"re{tag}", f"im{tag}", f"magnitude_db{tag}"]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for k, om in enumerate(omegas):
            row = [repr(float(om))]
            for i in range(p):
                for j in range(m):
                    v = complex(values[k, i, j])
                    mag_db = 20.0 * float(np.log10(max(abs(v), 1e-300)))
                    row += [repr(v.real), repr(v.imag), repr(mag_db)]
            w.writerow(row)


def write_h2_history(path, steps):
    """One row (k, norm_total, rel_increase) per step of a CURE report."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "norm", "rel_increase"])
        for st in steps:
            w.writerow([st["k"], repr(float(st["norm_total"])),
                        repr(float(st["rel_increase"]))])


def write_rom(rom, outdir):
    """ROM matrices as dense Matrix-Market arrays, a zero Dr as no file
    (an earlier ROM's ``rom_D.mtx`` is removed); returns the file map."""
    os.makedirs(outdir, exist_ok=True)
    files = {}
    mats = {"E": rom.Er, "A": rom.Ar, "B": rom.Br, "C": rom.Cr}
    if np.any(rom.Dr):
        mats["D"] = rom.Dr
    elif os.path.exists(os.path.join(outdir, "rom_D.mtx")):
        os.remove(os.path.join(outdir, "rom_D.mtx"))
    for key, mat in mats.items():
        fn = f"rom_{key}.mtx"
        spio.mmwrite(os.path.join(outdir, fn), np.atleast_2d(mat))
        files[key] = fn
    return files


def read_rom(romdir):
    """Load a reduced realization previously written by write_rom."""
    from .pork import RomRealization

    mats = {}
    for key in ("E", "A", "B", "C", "D"):
        fn = f"rom_{key}.mtx"
        if key == "D" and not os.path.exists(os.path.join(romdir, fn)):
            continue
        mats[key] = np.atleast_2d(np.asarray(
            sps.csc_matrix(_read_mtx(romdir, fn, key)).toarray(), dtype=float))
    return RomRealization(Er=mats["E"], Ar=mats["A"], Br=mats["B"],
                          Cr=mats["C"], Dr=mats.get("D"))


def write_results(report, outdir):
    """Write the JSON run report; returns its path."""
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "report.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, default=_json_default)
        fh.write("\n")
    return path


def _json_default(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj)}")
