"""New-file lifetimes (§6.3): figures 6 and 7.

Files created during the trace are matched to their deaths by the paper's
three deletion sources: (1) truncation-on-open of an existing file
(overwrite), (2) an explicit delete-disposition control operation, and
(3) the temporary-file attribute / delete-on-close option.  Lifetimes are
create-to-death; the close-to-overwrite and close-to-delete gaps the
paper quotes are computed too, as is the size-versus-lifetime sample
behind figure 7's no-correlation finding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

import numpy as np

from repro.common.clock import TICKS_PER_SECOND
from repro.stats.descriptive import cdf_points

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.sessions import InstanceTable
    from repro.analysis.warehouse import TraceWarehouse


@dataclass
class LifetimeAnalysis:
    """The §6.3 measurements."""

    # Ticks from creation to death, by deletion method.
    overwrite_lifetimes: np.ndarray = field(
        default_factory=lambda: np.array([]))
    delete_lifetimes: np.ndarray = field(default_factory=lambda: np.array([]))
    temporary_lifetimes: np.ndarray = field(
        default_factory=lambda: np.array([]))
    # Gap between the creating session's close and the killing action.
    close_to_overwrite_gaps: np.ndarray = field(
        default_factory=lambda: np.array([]))
    close_to_delete_gaps: np.ndarray = field(
        default_factory=lambda: np.array([]))
    # Size of the file when it died (figure 7's x axis).
    death_sizes: np.ndarray = field(default_factory=lambda: np.array([]))
    death_lifetimes: np.ndarray = field(default_factory=lambda: np.array([]))
    # Same-process attribution (§6.3's 94% / 36%).
    overwrite_same_process: int = 0
    overwrite_total_matched: int = 0
    delete_same_process: int = 0
    delete_total_matched: int = 0
    # Files opened between creation and explicit deletion (§6.3's 18%).
    delete_with_intervening_opens: int = 0
    n_created: int = 0

    # ------------------------------------------------------------------ #

    @property
    def n_deleted(self) -> int:
        return (self.overwrite_lifetimes.size + self.delete_lifetimes.size
                + self.temporary_lifetimes.size)

    def method_shares(self) -> dict[str, float]:
        """Deletion-source split (§6.3: 37% / 62% / 1%)."""
        total = max(1, self.n_deleted)
        return {
            "overwrite": 100.0 * self.overwrite_lifetimes.size / total,
            "explicit": 100.0 * self.delete_lifetimes.size / total,
            "temporary": 100.0 * self.temporary_lifetimes.size / total,
        }

    def all_lifetimes(self) -> np.ndarray:
        return np.concatenate([self.overwrite_lifetimes,
                               self.delete_lifetimes,
                               self.temporary_lifetimes])

    def fraction_deleted_within(self, seconds: float,
                                method: Optional[str] = None) -> float:
        """Fraction of deleted new files dying within ``seconds``."""
        if method == "overwrite":
            arr = self.overwrite_lifetimes
        elif method == "explicit":
            arr = self.delete_lifetimes
        elif method == "temporary":
            arr = self.temporary_lifetimes
        else:
            arr = self.all_lifetimes()
        if arr.size == 0:
            return float("nan")
        return float(np.mean(arr <= seconds * TICKS_PER_SECOND))

    def lifetime_cdf(self, method: str) -> tuple[np.ndarray, np.ndarray]:
        """Figure 6: CDF of new-file lifetime for one deletion method."""
        arr = {"overwrite": self.overwrite_lifetimes,
               "explicit": self.delete_lifetimes,
               "temporary": self.temporary_lifetimes}[method]
        return cdf_points(arr / TICKS_PER_SECOND)

    def size_lifetime_sample(self) -> tuple[np.ndarray, np.ndarray]:
        """Figure 7: (size at death, lifetime seconds) scatter sample."""
        return self.death_sizes, self.death_lifetimes / TICKS_PER_SECOND

    def could_have_used_temporary_pct(self,
                                      write_behind_seconds: float = 1.5
                                      ) -> float:
        """§6.3's "at least 25%-35% of all the deleted new files could
        have benefited" from the temporary attribute.

        A deleted new file benefited if its data actually reached the
        disk before the deletion — i.e. it outlived the write-behind
        delay, so the lazy writer's traffic was wasted.  Files that died
        inside the delay were already saved by deletion racing the
        writer; the temporary attribute would have changed nothing.
        """
        threshold = write_behind_seconds * TICKS_PER_SECOND
        wasted = int((self.overwrite_lifetimes > threshold).sum()
                     + (self.delete_lifetimes > threshold).sum())
        total = self.n_deleted
        if total == 0:
            return float("nan")
        return 100.0 * wasted / total

    def size_lifetime_correlation(self) -> float:
        """Rank correlation between size and lifetime (§6.3: none)."""
        if self.death_sizes.size < 3:
            return float("nan")
        from scipy import stats as sstats
        rho, _p = sstats.spearmanr(self.death_sizes, self.death_lifetimes)
        return float(rho)


METHODS = ("overwrite", "explicit", "temporary")
_OVERWRITE, _EXPLICIT, _TEMPORARY = range(3)


@dataclass(frozen=True)
class Deaths:
    """Matched file deaths (§6.3), one entry per death, in walk order."""

    method: np.ndarray            # index into METHODS
    lifetime: np.ndarray          # ticks, creation to death
    size: np.ndarray              # file size at death (figure 7's x axis)
    close_gap: np.ndarray         # close-to-death gap, -1 for temporary files
    same_process: np.ndarray      # killer pid == creator pid
    intervening_opens: np.ndarray


def death_events(table: "InstanceTable") -> tuple[int, Deaths]:
    """Match created files to their deaths; ``(n_created, deaths)``.

    The single source of truth for the §6.3 death-matching walk, shared
    by :func:`analyze_lifetimes` (whole warehouse) and the streaming fold
    (:mod:`repro.analysis.streaming`, one machine at a time — the key is
    machine-scoped, so partitioning by machine changes nothing).

    The successful opens of each (machine, volume, path) are a group, in
    table order; groups come in order of first appearance.  A created
    file dies at its own cleanup when temporary, at its own explicit
    delete, or else at the next later session of its group that
    overwrites or explicitly deletes it; the sessions in between are the
    intervening opens, and the last of them with a positive size gives
    the size at death.
    """
    rows = np.flatnonzero(~table.open_failed & (table.path_key >= 0))
    machine = table.machine_idx[rows]
    key = table.path_key[rows]
    by_group = np.lexsort((rows, key, machine))
    rows, machine, key = rows[by_group], machine[by_group], key[by_group]
    new_group = np.ones(len(rows), dtype=bool)
    new_group[1:] = (machine[1:] != machine[:-1]) | (key[1:] != key[:-1])
    group = np.cumsum(new_group) - 1
    # Renumber the groups by first appearance, then walk them in turn.
    first_seen = np.empty(int(new_group.sum()), dtype=np.int64)
    first_seen[np.argsort(rows[new_group])] = np.arange(len(first_seen))
    group = first_seen[group]
    walk = np.argsort(group, kind="stable")
    rows, group = rows[walk], group[walk]

    created = table.was_created[rows]
    open_t = table.open_t[rows]
    end_t = table.session_end_t[rows]
    delete_t = table.explicit_delete_t[rows]
    size = table.file_size_max[rows]
    temporary = created & table.temporary[rows] & (delete_t < 0)
    own_delete = created & (delete_t >= 0)
    # The next later session of the same group that kills the file.
    n = len(rows)
    position = np.arange(n)
    kills = table.was_overwrite[rows] | (delete_t >= 0)
    next_kill = np.full(n + 1, n, dtype=np.int64)
    next_kill[:n] = np.minimum.accumulate(
        np.where(kills, position, n)[::-1])[::-1]
    killer = next_kill[1:]
    at = np.minimum(killer, n - 1)
    walked = created & ~temporary & ~own_delete & (killer < n) \
        & (group[at] == group)
    killer_overwrites = table.was_overwrite[rows][at]
    death_t = np.where(own_delete, delete_t, np.where(
        killer_overwrites, open_t[at], delete_t[at]))
    # Size at death: the last positive size among the intervening opens.
    last_sized = np.maximum.accumulate(np.where(size > 0, position, -1))
    sized = last_sized[np.maximum(at - 1, 0)]
    walk_size = np.where(walked & (sized > position), size[sized], size)

    dead = temporary | own_delete | walked
    method = np.where(temporary, _TEMPORARY, np.where(
        own_delete | ~killer_overwrites, _EXPLICIT, _OVERWRITE))
    lifetime = np.maximum(np.where(temporary, end_t, death_t) - open_t, 0)
    return int(created.sum()), Deaths(
        method=method[dead],
        lifetime=lifetime[dead],
        size=walk_size[dead],
        close_gap=np.where(temporary, -1,
                           np.maximum(death_t - end_t, 0))[dead],
        same_process=(~walked | (table.pid[rows][at]
                                 == table.pid[rows]))[dead],
        intervening_opens=np.where(walked, killer - position - 1, 0)[dead])


def analyze_lifetimes(wh: "TraceWarehouse") -> LifetimeAnalysis:
    """Match created files to their deaths and measure lifetimes."""
    result = LifetimeAnalysis()
    result.n_created, deaths = death_events(wh.instance_table)
    overwrite = deaths.method == _OVERWRITE
    explicit = deaths.method == _EXPLICIT
    lifetime = deaths.lifetime.astype(float)
    gap = deaths.close_gap.astype(float)
    result.overwrite_lifetimes = lifetime[overwrite]
    result.delete_lifetimes = lifetime[explicit]
    result.temporary_lifetimes = lifetime[deaths.method == _TEMPORARY]
    result.close_to_overwrite_gaps = gap[overwrite]
    result.close_to_delete_gaps = gap[explicit]
    result.death_sizes = deaths.size.astype(float)
    result.death_lifetimes = lifetime
    result.overwrite_total_matched = int(overwrite.sum())
    result.overwrite_same_process = int((overwrite
                                         & deaths.same_process).sum())
    result.delete_total_matched = int(explicit.sum())
    result.delete_same_process = int((explicit & deaths.same_process).sum())
    result.delete_with_intervening_opens = int(
        (explicit & (deaths.intervening_opens > 0)).sum())
    return result
