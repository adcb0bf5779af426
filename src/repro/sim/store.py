"""Durable, content-addressed persistence for replicate sweeps.

Large Monte Carlo sweeps and chaos campaigns are expensive and — until
now — throwaway: a killed 10k-replicate run restarted from zero.  The
:class:`RunStore` makes them durable and *resumable*:

* A run is identified by the **canonical-JSON SHA-256 digest** of its
  scenario/campaign description plus the worker kind (``sweep`` /
  ``chaos``), so a stored result is content-addressed: the same inputs
  always map to the same run, and any edit to the scenario produces a
  fresh one.
* Each replicate outcome is one JSON record, keyed by its derived
  replicate **seed** (not its index — resuming with a larger
  ``--replicates`` count reuses every overlapping replicate).
* Records append to JSONL **shards**; a ``manifest.json`` (written
  atomically via :func:`atomic_write_text`, tmp-file + ``os.replace``)
  tracks the runs a store holds.
* Loading is **corruption tolerant**: a process killed mid-append
  leaves a torn final record, which is dropped (and the shard truncated
  back to its last complete record) instead of crashing; that replicate
  simply re-executes.  Corruption anywhere *before* the tail is real
  damage and raises :class:`RunStoreError` loudly.

The determinism contract of :class:`~repro.sim.parallel.SweepRunner`
(byte-identical payloads for any worker count) is what
makes resumption sound: a cached outcome and a freshly executed one are
indistinguishable, so aggregation over a resumed sweep is byte-identical
to an uninterrupted run.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional

from .parallel import ReplicateOutcome

__all__ = [
    "ResumeSession",
    "RunStore",
    "RunStoreError",
    "StoredRecord",
    "atomic_write_text",
    "canonical_digest",
    "canonical_json",
    "parse_age",
    "run_provenance",
]


_AGE_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, "w": 604800.0}


def parse_age(text: str) -> float:
    """Parse a human age like ``7d``, ``12h``, ``30m``, ``45s`` to seconds.

    A bare number is seconds.  Raises ``ValueError`` on anything else
    (including negative ages).
    """
    text = text.strip()
    if not text:
        raise ValueError("empty age")
    unit = 1.0
    number = text
    if text[-1].lower() in _AGE_UNITS:
        unit = _AGE_UNITS[text[-1].lower()]
        number = text[:-1]
    try:
        value = float(number)
    except ValueError as exc:
        raise ValueError(
            f"bad age {text!r}; expected NUMBER[s|m|h|d|w] (e.g. 7d, 12h)"
        ) from exc
    if value < 0:
        raise ValueError(f"age must be >= 0, got {text!r}")
    return value * unit


class RunStoreError(RuntimeError):
    """Raised for unusable stores (bad layout, mid-shard corruption)."""


# -- canonical JSON ---------------------------------------------------------


def canonical_json(data: Any) -> str:
    """The canonical JSON rendering of plain data.

    Sorted keys, no whitespace, NaN/Infinity rejected — the same data
    always serialises to the same bytes, so its SHA-256 is a stable
    content address across processes and machines.
    """
    return json.dumps(
        data, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def canonical_digest(data: Any) -> str:
    """SHA-256 hex digest of :func:`canonical_json`."""
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()


# -- atomic file replacement ------------------------------------------------


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (tmp file + ``os.replace``).

    An interrupted writer can never leave a truncated file at ``path``:
    readers see either the old content or the new content, nothing in
    between.  Used for the store manifest and for benchmark result
    files (``benchmarks/conftest.py``).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# -- provenance -------------------------------------------------------------


def run_provenance(
    kind: str,
    data: Dict[str, Any],
    base_seed: int,
    replicates: int,
    workers: int,
    infra: Optional[Any] = None,
) -> Dict[str, Any]:
    """The provenance block stamped on sweep/chaos JSON reports.

    Ties a stored result to its exact inputs: the scenario's canonical
    digest, the master seed replicate seeds derive from, the replicate
    and worker counts, and the package version that produced it.
    ``workers`` is scheduling metadata — the payload itself is
    worker-count independent by the sweep determinism contract.

    ``infra`` records supervision *degradations* (quarantined
    replicates, process→inline fallbacks).  It appears only when
    non-empty: a run that merely survived infra faults (retries,
    respawns) delivered its full payload and stays byte-identical to
    the fault-free report — only a run that actually lost capability
    is marked.
    """
    from .. import __version__

    out = {
        "kind": kind,
        "scenario_digest": canonical_digest(data),
        "base_seed": base_seed,
        "replicates": replicates,
        "workers": workers,
        "package_version": __version__,
    }
    if infra:
        out["infra"] = infra
    return out


# -- records ----------------------------------------------------------------

#: Keys every persisted record must carry to be considered complete.
_RECORD_KEYS = frozenset({"seed", "ok", "attempts", "elapsed"})


@dataclass(frozen=True)
class StoredRecord:
    """One persisted replicate outcome.

    ``attempts`` counts executions so far (1 on first write); a failed
    record is retried while ``attempts <= retries``.  ``elapsed`` is
    wall-clock metadata, never part of deterministic payloads.
    """

    seed: int
    ok: bool
    result: Any = None
    error: Optional[str] = None
    elapsed: float = 0.0
    attempts: int = 1

    def to_json_line(self) -> str:
        payload: Dict[str, Any] = {
            "seed": self.seed,
            "ok": self.ok,
            "attempts": self.attempts,
            "elapsed": self.elapsed,
        }
        if self.ok:
            payload["result"] = self.result
        else:
            payload["error"] = self.error
        return canonical_json(payload) + "\n"

    @staticmethod
    def from_bytes(raw: bytes) -> "StoredRecord":
        """Parse one record line; raises ``ValueError`` on torn input."""
        payload = json.loads(raw.decode("utf-8"))
        if not isinstance(payload, dict) or not _RECORD_KEYS <= set(payload):
            raise ValueError(f"incomplete record: {raw[:80]!r}")
        return StoredRecord(
            seed=int(payload["seed"]),
            ok=bool(payload["ok"]),
            result=payload.get("result"),
            error=payload.get("error"),
            elapsed=float(payload["elapsed"]),
            attempts=int(payload["attempts"]),
        )


# -- the store --------------------------------------------------------------


class RunStore:
    """Content-addressed, append-only store of replicate outcomes.

    Layout::

        <root>/manifest.json                  # run index (atomic writes)
        <root>/runs/<run_digest>/shard-K.jsonl  # append-only records

    Records shard by ``seed % shard_count`` so concurrent tooling can
    compact or inspect one shard at a time; sharding never affects
    which record a seed maps to.
    """

    MANIFEST = "manifest.json"
    #: Version 2: every replicate follows the one lane-keyed event
    #: order.  Version-1 stores hold unsharded replicates of the retired
    #: global-sequence order, so they are refused rather than mixed in.
    VERSION = 2

    def __init__(self, root, shard_count: int = 4):
        if shard_count < 1:
            raise ValueError(f"shard_count must be >= 1, got {shard_count}")
        self.root = Path(root)
        self.shard_count = shard_count
        self.root.mkdir(parents=True, exist_ok=True)
        self._manifest = self._load_manifest()

    # -- manifest -------------------------------------------------------

    def _manifest_path(self) -> Path:
        return self.root / self.MANIFEST

    def _load_manifest(self) -> Dict[str, Any]:
        path = self._manifest_path()
        if not path.exists():
            return {"version": self.VERSION, "runs": {}}
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise RunStoreError(
                f"unreadable manifest {path}: {exc}"
            ) from exc
        if manifest.get("version") != self.VERSION:
            raise RunStoreError(
                f"manifest version {manifest.get('version')!r} in {path}; "
                f"this build reads version {self.VERSION}"
            )
        return manifest

    def _save_manifest(self) -> None:
        atomic_write_text(
            self._manifest_path(),
            json.dumps(self._manifest, indent=2, sort_keys=True) + "\n",
        )

    def register_run(
        self, run_digest: str, kind: str, scenario_digest: str
    ) -> None:
        """Record a run in the manifest (idempotent)."""
        runs = self._manifest.setdefault("runs", {})
        if run_digest not in runs:
            runs[run_digest] = {
                "kind": kind,
                "scenario_digest": scenario_digest,
                "records": 0,
            }
            self._save_manifest()

    def update_run(self, run_digest: str, records: int) -> None:
        """Refresh a run's record count in the manifest."""
        entry = self._manifest.setdefault("runs", {}).setdefault(
            run_digest, {}
        )
        if entry.get("records") != records:
            entry["records"] = records
            self._save_manifest()

    def runs(self) -> Dict[str, Dict[str, Any]]:
        """The manifest's run index (digest -> metadata)."""
        return dict(self._manifest.get("runs", {}))

    # -- shards ---------------------------------------------------------

    def run_dir(self, run_digest: str) -> Path:
        return self.root / "runs" / run_digest

    def _shard_path(self, run_digest: str, seed: int) -> Path:
        return self.run_dir(run_digest) / (
            f"shard-{seed % self.shard_count}.jsonl"
        )

    def load_records(self, run_digest: str) -> Dict[int, StoredRecord]:
        """All records of a run, keyed by seed (later lines win).

        Tolerates a torn final record in any shard: the tail is dropped
        and the shard truncated back to its last complete record.
        """
        records: Dict[int, StoredRecord] = {}
        run_dir = self.run_dir(run_digest)
        if not run_dir.is_dir():
            return records
        for path in sorted(run_dir.glob("shard-*.jsonl")):
            for record in self._recover_shard(path):
                records[record.seed] = record
        return records

    @staticmethod
    def _recover_shard(path: Path):
        """Parse a shard, dropping (and truncating) a torn tail."""
        raw = path.read_bytes()
        records = []
        pos = 0
        size = len(raw)
        while pos < size:
            newline = raw.find(b"\n", pos)
            end = size if newline == -1 else newline + 1
            line = raw[pos : newline if newline != -1 else size]
            try:
                records.append(StoredRecord.from_bytes(line))
            except ValueError as exc:
                if end >= size:
                    # A process died mid-append: drop the torn final
                    # record and truncate so future appends are clean.
                    with open(path, "r+b") as handle:
                        handle.truncate(pos)
                    break
                raise RunStoreError(
                    f"corrupt record mid-shard in {path} at byte {pos}: "
                    f"{exc}"
                ) from exc
            pos = end
        return records

    def gc(
        self, run_digest: Optional[str] = None, dry_run: bool = False
    ) -> Dict[str, Dict[str, int]]:
        """Drop superseded records (earlier attempts of retried seeds).

        The store is append-only: a retried replicate appends a fresh
        record and readers apply a later-lines-win rule, so earlier
        attempts become dead weight.  ``gc`` rewrites each shard down
        to the final record per seed (in final-occurrence order, so a
        re-read yields byte-identical resolution) and refreshes the
        manifest's record counts.

        Every rewrite is atomic (tmp file + ``os.replace``): a reader
        or crash mid-gc sees either the old shard or the compacted one,
        never a torn file, and the append-only discipline of live
        writers is preserved because gc only ever *removes* superseded
        lines.

        Args:
            run_digest: compact just this run; ``None`` compacts all.
            dry_run: count superseded records without rewriting.

        Returns:
            ``{run_digest: {"kept": K, "dropped": D}}`` per touched run.
        """
        if run_digest is None:
            digests = sorted(self._manifest.get("runs", {}))
        else:
            digests = [run_digest]
        report: Dict[str, Dict[str, int]] = {}
        for digest in digests:
            run_dir = self.run_dir(digest)
            if not run_dir.is_dir():
                report[digest] = {"kept": 0, "dropped": 0}
                continue
            kept_total = 0
            dropped_total = 0
            for path in sorted(run_dir.glob("shard-*.jsonl")):
                records = self._recover_shard(path)
                # Final-occurrence order: keep each seed's record only
                # at its last position, so a re-read resolves to the
                # same record per seed as the uncompacted shard.
                last_index = {r.seed: i for i, r in enumerate(records)}
                survivors = [
                    r
                    for i, r in enumerate(records)
                    if last_index[r.seed] == i
                ]
                dropped = len(records) - len(survivors)
                kept_total += len(survivors)
                dropped_total += dropped
                if dropped and not dry_run:
                    atomic_write_text(
                        path,
                        "".join(r.to_json_line() for r in survivors),
                    )
            report[digest] = {"kept": kept_total, "dropped": dropped_total}
            if not dry_run:
                self.update_run(digest, kept_total)
        return report

    def expire(
        self, older_than: float, dry_run: bool = False
    ) -> Dict[str, Dict[str, Any]]:
        """Drop whole runs not written to in ``older_than`` seconds.

        A run's age is measured from the newest mtime among its shard
        files (any append refreshes it), so only runs genuinely idle
        for the full window expire.  Expiry removes the run directory
        and its manifest entry; the manifest rewrite is atomic, and the
        store stays append-only for live writers because only *whole*
        runs ever disappear.  Runs listed in the manifest but missing
        on disk count as age-unknown and expire too (they hold no
        serveable records).

        Args:
            older_than: idle threshold in seconds (see :func:`parse_age`).
            dry_run: report what would expire without touching disk.

        Returns:
            ``{run_digest: {"age": seconds | None, "records": N,
            "expired": bool}}`` for every run in the manifest.
        """
        if older_than < 0:
            raise ValueError(f"older_than must be >= 0, got {older_than}")
        now = time.time()
        report: Dict[str, Dict[str, Any]] = {}
        expired = []
        for digest, entry in sorted(self._manifest.get("runs", {}).items()):
            run_dir = self.run_dir(digest)
            mtimes = (
                [p.stat().st_mtime for p in run_dir.glob("shard-*.jsonl")]
                if run_dir.is_dir()
                else []
            )
            age = (now - max(mtimes)) if mtimes else None
            stale = age is None or age > older_than
            report[digest] = {
                "age": age,
                "records": int(entry.get("records", 0)),
                "expired": stale,
            }
            if stale:
                expired.append(digest)
        if not dry_run and expired:
            for digest in expired:
                run_dir = self.run_dir(digest)
                if run_dir.is_dir():
                    shutil.rmtree(run_dir)
                self._manifest.get("runs", {}).pop(digest, None)
            self._save_manifest()
        return report

    def append(self, run_digest: str, record: StoredRecord) -> None:
        """Append one record to the run's shard (flushed immediately)."""
        path = self._shard_path(run_digest, record.seed)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(record.to_json_line())
            handle.flush()
            os.fsync(handle.fileno())

    # -- sessions -------------------------------------------------------

    def session(
        self,
        kind: str,
        data: Dict[str, Any],
        retries: int = 0,
        resume: bool = True,
    ) -> "ResumeSession":
        """Open a resume session for one (kind, scenario) run."""
        return ResumeSession(
            self, kind=kind, data=data, retries=retries, resume=resume
        )


class ResumeSession:
    """Binds one sweep/chaos run to its stored records.

    Passed to :meth:`repro.sim.SweepRunner.run` as ``resume=``: the
    runner consults :meth:`lookup` before executing a spec and funnels
    every fresh outcome through :meth:`record`.  Lookup keys on the
    replicate's derived *seed*, so growing ``--replicates`` between
    resumed runs reuses every overlapping replicate.
    """

    def __init__(
        self,
        store: RunStore,
        kind: str,
        data: Dict[str, Any],
        retries: int = 0,
        resume: bool = True,
    ):
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.store = store
        self.kind = kind
        self.retries = retries
        self.resume = resume
        self.scenario_digest = canonical_digest(data)
        self.run_digest = canonical_digest(
            {"kind": kind, "scenario_digest": self.scenario_digest}
        )
        store.register_run(self.run_digest, kind, self.scenario_digest)
        self._records = store.load_records(self.run_digest)

    def lookup(self, spec: Dict[str, Any]) -> Optional[ReplicateOutcome]:
        """The cached outcome for a spec, or ``None`` to (re-)execute.

        Successful records are always reused; failed records re-execute
        while their attempt count is within the retry budget
        (``attempts <= retries``).  With ``resume=False`` every spec
        re-executes (the fresh outcomes still persist).
        """
        if not self.resume:
            return None
        record = self._records.get(int(spec["seed"]))
        if record is None:
            return None
        if not record.ok and record.attempts <= self.retries:
            return None
        return ReplicateOutcome(
            index=-1,
            ok=record.ok,
            result=record.result,
            error=record.error,
            elapsed=record.elapsed,
            cached=True,
        )

    def record(
        self, spec: Dict[str, Any], outcome: ReplicateOutcome
    ) -> ReplicateOutcome:
        """Persist a freshly executed outcome; returns it unchanged."""
        seed = int(spec["seed"])
        previous = self._records.get(seed)
        stored = StoredRecord(
            seed=seed,
            ok=outcome.ok,
            result=outcome.result if outcome.ok else None,
            error=outcome.error,
            elapsed=outcome.elapsed,
            attempts=(previous.attempts if previous else 0) + 1,
        )
        self.store.append(self.run_digest, stored)
        self._records[seed] = stored
        return outcome

    def close(self) -> None:
        """Refresh the manifest's record count for this run."""
        self.store.update_run(self.run_digest, len(self._records))

    def __enter__(self) -> "ResumeSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
