"""Monte Carlo engine: null distributions, p-values, power, study runs.

The null distribution of the test statistic does not depend on (c, phi), so
one simulation per (family, n) serves every dataset of that shape. Only the
statistic depends on gamma, so one draw-and-fit pass at a seed serves every
gamma: each replicate is drawn, fitted and standardized once, then scored at
each gamma. The replicates run in fixed chunks of 512, and chunk k draws from
its own substream (seed, k): its whole sample matrix in one generator call,
then each round of MLE redraws in one more. Each round fits and scores its
rows in blocks of about 2^14 values, so a chunk's temporaries stay small at
any n; fits and statistics are per-row reductions, so the blocks leave every
bit unchanged. The chunk layout does not depend on the worker count, so
results are bit-identical for a fixed seed however many workers run. The
calling process scores chunks itself, beside up to workers - 1 helpers
forked once per engine call; where os.fork is missing, every chunk runs in
the caller. A power study runs all its passes, a null per (family, n) and an
alternative per cell, as one such call, so short passes run side by side.
No step loads scipy.
"""
from __future__ import annotations

import numbers
import os
import pickle
import zipfile
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DomainError, EngineError
from .estimation import _standardize_rows, fit_batch, mle, standardize
from .families import (
    AlternativeSpec,
    Family,
    STANDARD_PARAMS,
    parse_alternative,
    sample_alternative,
    sample_null,
)
from .stat import batch_statistics, check_gamma, lambda_table, statistic
from .stat import l_constant  # noqa: F401  (unused here; perfbench traces simulation.l_constant)

#: Bump when the statistic implementation changes; cached nulls are keyed on it.
STATISTIC_CODE_VERSION = "18"

#: Replicates per work unit and per random substream. Fixed so that the chunk
#: layout (and therefore every draw and floating-point reduction) is
#: independent of the worker count.
_CHUNK = 512

#: Values fitted and scored at once: a chunk runs in blocks of _BLOCK // n
#: rows, so its (rows, n) temporaries stay near 2^14 values (128 KiB) at any
#: n. At n <= 32 a chunk is one block.
_BLOCK = 1 << 14

_MAX_ATTEMPTS = 100


@dataclass(frozen=True)
class NullDistribution:
    """Monte Carlo null statistics for one (family, n, gamma), ascending, so NaN-free."""

    family: Family
    n: int
    gamma: float
    replicates: int
    sorted_stats: np.ndarray
    seed: int
    redraws: int = 0

    def __post_init__(self):
        stats = np.asarray(self.sorted_stats, dtype=float)
        if stats.ndim != 1 or stats.size != self.replicates or not np.all(stats[:-1] <= stats[1:]):
            raise ConfigError("sorted_stats must be an ascending 1-D array of replicates values")
        _count("redraws", self.redraws, 0)


@dataclass(frozen=True)
class TestResult:
    """Outcome of testing one dataset at one gamma; ``redraws`` counts the
    null replicates redrawn after a failed fit."""

    family: Family
    n: int
    gamma: float
    statistic: float
    p_value: float
    estimate: object
    replicates: int
    seed: int
    redraws: int = 0


@dataclass(frozen=True)
class PowerResult:
    """Empirical rejection rate of one study cell."""

    family: Family
    alternative: AlternativeSpec
    n: int
    gamma: float
    alpha: float
    rejections: int
    replicates: int
    rate: float


def _count(name: str, value, low: int) -> int:
    """A config integer >= low; bools, floats and strings are config errors."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def _number(name: str, value, low: float, high: float) -> float:
    """A config number in the open interval (low, high); NaN and strings are not."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not low < value < high):
        raise ConfigError(f"{name} must be a number in ({low:g}, {high:g}), got {value!r}")
    return float(value)


@dataclass(frozen=True)
class StudyConfig:
    """Declarative description of a power study."""

    families: tuple[Family, ...]
    alternatives: tuple[AlternativeSpec, ...]
    gammas: tuple[float, ...] = (0.5, 1.0, 5.0)
    sample_sizes: tuple[int, ...] = (20, 50)
    alpha: float = 0.05
    replicates: int = 10000
    crit_replicates: int | None = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "families", tuple(self.families))
        object.__setattr__(self, "alternatives", tuple(self.alternatives))
        object.__setattr__(
            self, "sample_sizes", tuple(_count("sample size", n, 3) for n in self.sample_sizes)
        )
        if not self.families or not self.alternatives or not self.gammas or not self.sample_sizes:
            raise ConfigError("families, alternatives, gammas and sample_sizes must be nonempty")
        for family in self.families:  # each family against each gamma
            gammas = tuple(check_gamma(family, g) for g in self.gammas)
        object.__setattr__(self, "gammas", gammas)
        _number("alpha", self.alpha, 0.0, 1.0)
        _count("replicates", self.replicates, 100)
        if self.crit_replicates is not None:
            _count("crit_replicates", self.crit_replicates, 100)
        _count("seed", self.seed, 0)
        listed = self.to_dict()  # each study cell once: no entry of a field twice
        for name in ("families", "alternatives", "gammas", "sample_sizes"):
            if len(set(listed[name])) < len(listed[name]):
                raise ConfigError(f"{name} lists an entry twice: {listed[name]}")

    @property
    def effective_crit_replicates(self) -> int:
        return self.crit_replicates if self.crit_replicates is not None else 2 * self.replicates

    @classmethod
    def from_dict(cls, d: dict) -> "StudyConfig":
        if not isinstance(d, dict):
            raise ConfigError("a study config must be a JSON object")
        extra = set(d) - {f.name for f in fields(cls)}
        if extra:
            raise ConfigError(f"unknown study config fields: {sorted(extra)}")
        if "families" not in d or "alternatives" not in d:
            raise ConfigError("study config needs 'families' and 'alternatives'")
        for name in ("families", "alternatives", "gammas", "sample_sizes"):
            if not isinstance(d.get(name, []), list):
                raise ConfigError(f"{name} must be a list, got {d[name]!r}")
        return cls(**{**d, "families": [Family.parse(f) for f in d["families"]],
                      "alternatives": [parse_alternative(a) for a in d["alternatives"]]})

    def to_dict(self) -> dict:
        return {
            "families": [f.value for f in self.families],
            "alternatives": [str(a) for a in self.alternatives],
            "gammas": list(self.gammas),
            "sample_sizes": list(self.sample_sizes),
            "alpha": self.alpha,
            "replicates": self.replicates,
            "crit_replicates": self.effective_crit_replicates,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class StudyResult:
    config: StudyConfig
    results: tuple[PowerResult, ...]
    failures: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Replicate engine.
# ---------------------------------------------------------------------------

def _draw(family, alt, shape, rng: np.random.Generator) -> np.ndarray:
    """Samples from the standard member of ``family``, or from ``alt`` if set."""
    with np.errstate(over="ignore"):  # a value past double range is inf: a failed fit, redrawn
        if alt is None:
            return sample_null(family, STANDARD_PARAMS, shape, rng)
        return sample_alternative(alt, shape, rng)


def _simulate_chunk(family, n, gammas, seed, i0, i1, alt):
    """Replicates [i0, i1) of chunk i0 // _CHUNK: (stats with one row per
    gamma, redraws, failed fits). The chunk's samples, redraws included,
    come from its substream (seed, i0 // _CHUNK), drawn by :func:`_draw`.
    Each attempt fits and scores its pending rows in blocks of
    max(1, _BLOCK // n) rows; every fit and statistic is a per-row
    reduction, so the blocks leave every bit of the result unchanged."""
    count = i1 - i0
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i0 // _CHUNK,)))
    x = _draw(family, alt, (count, n), rng)

    stats = np.empty((len(gammas), count))
    rows = max(1, _BLOCK // n)
    pending = np.arange(count)
    redraws = failed = 0
    for _ in range(_MAX_ATTEMPTS):
        ok = np.concatenate([_score_block(family, gammas, x, pending[s:s + rows], stats)
                             for s in range(0, pending.size, rows)])
        pending = pending[~ok]
        if pending.size == 0:
            break
        redraws += pending.size
        failed = failed or pending.size  # set once: later attempts refit only these rows
        x[pending] = _draw(family, alt, (pending.size, n), rng)
    else:
        raise EngineError(
            f"replicates kept failing the MLE after {_MAX_ATTEMPTS} redraws "
            f"({family.value}, n={n})"
        )
    return stats, redraws, failed


def _score_block(family, gammas, x, block, stats):
    """Fit the rows ``block`` of x, write the statistics of those that fit
    into their columns of ``stats``, and return the fit's ok mask."""
    c, phi, ok, _ = fit_batch(family, x[block])
    good = block[ok]
    if good.size:
        y = _standardize_rows(x[good], c[ok, None], phi[ok, None])
        for k, gamma in enumerate(gammas):
            stats[k, good] = batch_statistics(family, gamma, y)
    return ok


def _run_passes(passes, workers):
    """Run simulation passes: an iterator over each one's (stats, redraws),
    or the exception it raised, in pass order.

    A pass is (family, n, gammas, replicates, seed, alt), and its stats have
    one row per gamma. ``alt`` is the alternative its replicates are drawn
    from, or None for a null pass, which draws from the standard member.
    Number the chunks of all passes in order; chunk i runs in process
    i % size, where size = min(workers, chunks). Process 0 is the caller,
    and the others are helpers forked once, on the first step, each
    computing its chunks in order and piping back their results. The caller
    takes the chunks in order, scoring its own and reading the helpers'
    from their pipes, so short passes run side by side and each pass comes
    out as soon as its last chunk is in. Without ``os.fork`` every chunk
    runs here.
    """
    _count("workers", workers, 1)
    chunks = [
        [(family, n, gammas, seed, i0, min(i0 + _CHUNK, big_n), alt)
         for i0 in range(0, big_n, _CHUNK)]
        for family, n, gammas, big_n, seed, alt in passes
    ]
    size = min(workers, sum(map(len, chunks))) if hasattr(os, "fork") else 1
    return _chunk_stream(passes, chunks, size)


def _chunk_stream(passes, chunks, size):
    """The generator behind :func:`_run_passes`."""
    flat = [c for cs in chunks for c in cs]
    helpers = []  # (pid, pipe reader) of processes 1 .. size - 1
    try:
        if size > 1:
            _warm(passes)
            for j in range(1, size):
                helpers.append(_fork(flat[j::size]))
        # Chunk i, in order, from process i % size.
        results = (_attempt(c) if i % size == 0 else _receive(helpers[i % size - 1][1])
                   for i, c in enumerate(flat))
        for p, cs in zip(passes, chunks):
            yield _join(p, [next(results) for _ in cs])
    finally:  # also when the consumer stops early or is interrupted
        for pid, reader in helpers:
            reader.close()
            os.kill(pid, 9)  # SIGKILL; the signal module stays unloaded
            os.waitpid(pid, 0)


def _warm(passes):
    """Build what every chunk reads, so that forked helpers inherit it."""
    import numpy.random  # noqa: F401  (numpy loads it on first use)

    for family, _, gammas, *_ in passes:
        for gamma in gammas:
            lambda_table(family, gamma)


def _attempt(chunk):
    """A chunk's result, or the exception it raised."""
    try:
        return _simulate_chunk(*chunk)
    except Exception as exc:
        return exc


def _fork(chunks):
    """Fork a helper that computes ``chunks`` in order and pipes back each
    one's result; return its (pid, pipe reader)."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        # The helper leaves by os._exit alone, so it never flushes the
        # caller's stdio or runs its cleanup.
        try:
            os.close(r)
            with open(w, "wb") as out:
                for chunk in chunks:
                    # Pickled twice, so that a result which will not unpickle
                    # costs only its own chunk (see _receive).
                    pickle.dump(pickle.dumps(_attempt(chunk)), out)
                    out.flush()
        finally:
            os._exit(0)
    os.close(w)
    return pid, open(r, "rb")


def _receive(reader):
    """A helper's next chunk result, or an EngineError if it ended without
    sending one or sent one that will not unpickle."""
    try:
        return pickle.loads(pickle.load(reader))
    except Exception as exc:
        return EngineError(f"a worker process returned no chunk result ({exc!r})")


def _join(p, parts):
    """A pass's (stats, redraws) from its chunk results, or the exception it
    raised: its first chunk's, else one for too many failed fits."""
    family, n, gammas, big_n = p[:4]
    error = next((part for part in parts if isinstance(part, Exception)), None)
    if error is not None:
        return error
    stats = np.concatenate([part[0] for part in parts], axis=1)
    redraws = sum(part[1] for part in parts)
    failed = sum(part[2] for part in parts)
    if failed > 0.01 * big_n:
        return EngineError(
            f"MLE failed on {failed} of {big_n} replicates "
            f"({family.value}, n={n}, gamma={','.join(f'{g:g}' for g in gammas)})"
        )
    return stats, redraws


def _null_plan(family, n, gammas, replicates, seed, cache):
    """The nulls the cache holds, by gamma (None on a miss), and the pass that
    simulates the misses, or None if there are none."""
    _count("n", n, 3)
    _count("replicates", replicates, 100)
    _count("seed", seed, 0)
    for g in gammas:
        check_gamma(family, g)
    nulls = {g: cache.load(family, n, g, replicates, seed) if cache else None for g in gammas}
    missing = tuple(g for g, null in nulls.items() if null is None)
    if not missing:
        return nulls, None
    return nulls, (family, n, missing, replicates, seed, None)


def _fill_nulls(nulls, null_pass, outcome, cache):
    """Store a null pass's outcome in ``nulls`` and the cache; raise if it failed."""
    if isinstance(outcome, Exception):
        raise outcome
    family, n, missing, replicates, seed, _ = null_pass
    stats, redraws = outcome
    for g, row in zip(missing, stats):
        nulls[g] = NullDistribution(
            family=family, n=n, gamma=g, replicates=replicates,
            sorted_stats=np.sort(row), seed=seed, redraws=redraws,
        )
        if cache is not None:
            cache.save(nulls[g])


def _rates(alt, alpha, replicates, nulls, outcome) -> list[PowerResult]:
    """The rate against ``alt`` at each null's gamma from one alternative
    pass's outcome; raise if the pass failed."""
    if isinstance(outcome, Exception):
        raise outcome
    stats, _ = outcome
    rejections = [int((row > critical_value(null, alpha)).sum())
                  for row, null in zip(stats, nulls)]
    return [
        PowerResult(family=null.family, alternative=alt, n=null.n, gamma=null.gamma,
                    alpha=alpha, rejections=r, replicates=replicates, rate=r / replicates)
        for null, r in zip(nulls, rejections)
    ]


def build_nulls(
    family: Family,
    n: int,
    gammas,
    replicates: int,
    seed: int,
    *,
    workers: int = 1,
    cache: "NullCache | None" = None,
) -> tuple[NullDistribution, ...]:
    """Simulate the null distribution of the statistic for (family, n) at each gamma.

    Every replicate draws a fresh sample from the standard member
    (c = phi = 1; exact invariance makes the law the same for every member),
    refits the MLE, standardizes and computes the statistic at every gamma
    the cache does not already hold. Replicates whose MLE degenerates are
    redrawn from their chunk's substream (chunk k of 512 replicates draws
    from substream (seed, k)) and counted in ``redraws``. Each null equals
    what a separate call for its gamma at the same seed gives, bit for bit,
    and is cached under its own key.
    """
    gammas = tuple(float(g) for g in gammas)
    nulls, null_pass = _null_plan(family, n, gammas, replicates, seed, cache)
    # Called even when the cache holds every gamma, so workers is checked.
    for outcome in _run_passes([null_pass] if null_pass else [], workers):
        _fill_nulls(nulls, null_pass, outcome, cache)
    return tuple(nulls[g] for g in gammas)


def build_null(
    family: Family,
    n: int,
    gamma: float,
    replicates: int,
    seed: int,
    *,
    workers: int = 1,
    cache: "NullCache | None" = None,
) -> NullDistribution:
    """The null distribution for one gamma; see :func:`build_nulls`."""
    return build_nulls(family, n, (gamma,), replicates, seed,
                       workers=workers, cache=cache)[0]


def critical_value(null: NullDistribution, alpha: float) -> float:
    """Empirical upper-alpha critical value: order statistic ceil((1-a)(N+1)).
    An alpha outside (0, 1) is a ConfigError."""
    _number("alpha", alpha, 0.0, 1.0)
    n_rep = null.replicates
    rank = int(np.ceil((1.0 - alpha) * (n_rep + 1)))
    rank = min(max(rank, 1), n_rep)
    return float(null.sorted_stats[rank - 1])


def p_value(null: NullDistribution, observed: float) -> float:
    """Monte Carlo p-value (1 + #{null stats >= observed}) / (N + 1)."""
    if not np.isfinite(observed):
        raise DomainError("observed statistic must be finite")
    exceed = null.replicates - np.searchsorted(null.sorted_stats, observed, side="left")
    return float((1 + exceed) / (null.replicates + 1))


def power(
    family: Family,
    alt: AlternativeSpec,
    n: int,
    gamma: float,
    alpha: float,
    replicates: int,
    null: NullDistribution,
    seed: int,
    *,
    workers: int = 1,
) -> PowerResult:
    """Empirical rejection rate against a fixed alternative. A null that does not match
    (family, n, gamma), or a bad gamma, count (n, replicates, seed, workers) or alpha,
    is a ConfigError, raised before anything is drawn."""
    if (null.family, null.n) != (family, n) or null.gamma != float(gamma):
        raise ConfigError("null distribution does not match (family, n, gamma)")
    check_gamma(family, null.gamma)
    _count("n", n, 3)
    _count("replicates", replicates, 100)
    _number("alpha", alpha, 0.0, 1.0)
    _count("seed", seed, 0)
    (outcome,) = _run_passes([(family, n, (null.gamma,), replicates, seed, alt)], workers)
    return _rates(alt, alpha, replicates, (null,), outcome)[0]


def derive_seed(base: int, key: tuple[int, ...]) -> int:
    """Deterministic 63-bit child seed for a labelled sub-experiment."""
    state = np.random.SeedSequence(base, spawn_key=key).generate_state(1, np.uint64)
    return int(state[0] >> np.uint64(1))


def gof_test(
    data,
    family: Family,
    gammas,
    replicates: int,
    seed: int,
    *,
    workers: int = 1,
    cache: "NullCache | None" = None,
) -> list[TestResult]:
    """Full test of one dataset: fit, standardize, statistic and p-value per gamma."""
    x = np.asarray(data, dtype=float).ravel()
    est = mle(family, x)
    y = standardize(x, est)
    gammas = [float(g) for g in gammas]
    observed = [statistic(family, y, g).value for g in gammas]
    nulls = build_nulls(
        family, x.size, gammas, replicates, seed, workers=workers, cache=cache,
    )
    return [
        TestResult(
            family=family, n=x.size, gamma=g, statistic=t, p_value=p_value(null, t),
            estimate=est, replicates=replicates, seed=seed, redraws=null.redraws,
        )
        for g, t, null in zip(gammas, observed, nulls)
    ]


def run_study(
    config: StudyConfig,
    *,
    workers: int = 1,
    cache: "NullCache | None" = None,
    progress=None,
) -> StudyResult:
    """Run a full power study: one null pass per (family, n) for all gammas
    and one power pass per (family, n, alternative), all run by one
    :func:`_run_passes` call, so the processes share every pass's chunks.

    Failures are collected and reported without aborting the rest of the
    study; a failed null drops its (family, n)'s cells, whose passes have run
    by then. Results are deterministic functions of the config seed and come,
    like the ``progress`` calls, in (family, n, alternative, gamma) order.
    """
    n_crit = config.effective_crit_replicates
    groups, passes = [], []
    for fi, family in enumerate(config.families):
        for ni, n in enumerate(config.sample_sizes):
            nulls, null_pass = _null_plan(
                family, n, config.gammas, n_crit, derive_seed(config.seed, (0, fi, ni)), cache,
            )
            groups.append((f"{family.value} n={n}", nulls, null_pass))
            passes += [null_pass] if null_pass else []
            passes += [
                (family, n, config.gammas, config.replicates,
                 derive_seed(config.seed, (1, fi, ni, ai)), alt)
                for ai, alt in enumerate(config.alternatives)
            ]
    results: list[PowerResult] = []
    failures: list[str] = []
    outcomes = _run_passes(passes, workers)
    try:
        for label, nulls, null_pass in groups:
            null_outcome = next(outcomes) if null_pass else None
            try:
                if null_pass:
                    _fill_nulls(nulls, null_pass, null_outcome, cache)
            except Exception as exc:
                failures.append(f"null {label}: {exc}")
                for _ in zip(config.alternatives, outcomes):  # drop its cells' outcomes
                    pass
                continue
            cell_nulls = tuple(nulls[g] for g in config.gammas)
            for alt, outcome in zip(config.alternatives, outcomes):
                try:
                    cells = _rates(alt, config.alpha, config.replicates, cell_nulls, outcome)
                except Exception as exc:
                    failures.append(f"power {label} vs {alt}: {exc}")
                    continue
                results.extend(cells)
                if progress is not None:
                    for res in cells:
                        progress(res)
    finally:  # a progress callback that raises leaves no helper behind
        outcomes.close()
    return StudyResult(config=config, results=tuple(results), failures=tuple(failures))


# ---------------------------------------------------------------------------
# On-disk cache of null distributions.
# ---------------------------------------------------------------------------

class NullCache:
    """Directory of simulated null distributions, keyed by their parameters.

    Files are numpy archives holding the full header next to the sorted
    statistics, so a load round-trips losslessly; a version tag invalidates
    caches produced by older statistic implementations.
    """

    def __init__(self, directory):
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)

    @staticmethod
    def _header(family: Family, n: int, gamma: float, replicates: int, seed: int) -> dict:
        """A record's header fields, in file order: its key and the statistic's version."""
        return {"family": family.value, "n": n, "gamma": float(gamma), "replicates": replicates,
                "seed": seed, "version": STATISTIC_CODE_VERSION}

    def _path(self, family: Family, n: int, gamma: float, replicates: int, seed: int) -> str:
        """The header's fields after their tags: weibull_n40_g1.0_N300_s5_v18.npz."""
        values = self._header(family, n, gamma, replicates, seed).values()
        name = "_".join(f"{tag}{v}" for tag, v in zip(("", "n", "g", "N", "s", "v"), values))
        return os.path.join(self.directory, f"{name}.npz")

    def load(self, family, n, gamma, replicates, seed) -> NullDistribution | None:
        """The cached null for these parameters, or None on a miss.

        A file that cannot be read back whole (empty, truncated, corrupt or missing a
        field), whose fields do not match the header one by one as scalars, or whose
        record NullDistribution rejects (unsorted or NaN statistics, a redraws that is
        not a count) is a miss too; the next save replaces it.
        """
        header = self._header(family, n, gamma, replicates, seed)
        try:
            with np.load(self._path(family, n, gamma, replicates, seed)) as payload:
                if any(payload[k].item() != v for k, v in header.items()):
                    return None
                return NullDistribution(
                    family=family, n=n, gamma=header["gamma"], replicates=replicates,
                    sorted_stats=payload["sorted_stats"].copy(), seed=seed,
                    redraws=payload["redraws"].item(),
                )
        except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile):
            return None

    def save(self, null: NullDistribution) -> str:
        import uuid  # only a cache write needs it; runs that only read skip its import

        key = (null.family, null.n, null.gamma, null.replicates, null.seed)
        path = self._path(*key)
        # Each writer fills its own temp file and renames it into place, so
        # processes sharing the directory never see or clobber a partial file.
        tmp = f"{path}.{uuid.uuid4().hex}.tmp"
        try:
            with open(tmp, "xb") as fh:
                np.savez(fh, **self._header(*key), redraws=null.redraws,
                         sorted_stats=null.sorted_stats)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return path
