package cache

// Cache lifecycle: the persistent tier used to grow without bound —
// every sweep wrote entries, nothing ever removed them, and a crash
// between CreateTemp and Rename stranded a put-*.tmp file forever.
// GC is the eviction sweep (age cap, then a size cap evicting oldest
// first with a deterministic key tie-break, plus orphaned-tmp
// collection); Verify is the integrity pass (decode every entry,
// delete garbage).
//
// Both are safe to run concurrently with live readers and writers, in
// this process or in others sharing the store: writes are atomic, so
// a swept entry is always either fully present or a miss, and a miss
// just recomputes. Deleting an entry a writer is re-creating races
// benignly — whichever operation lands last wins, and both leave the
// store consistent. The memory tier is deliberately untouched: its
// values are content-addressed and therefore never stale, and it has
// its own entry/byte bounds.

import (
	"fmt"
	"sort"
	"time"
)

// DefaultTmpAge is the orphaned-tmp cutoff when GCPolicy.TmpAge is
// zero: a put-*.tmp this old cannot belong to a live write (writes
// complete in milliseconds), only to a process that died mid-Put.
const DefaultTmpAge = time.Hour

// GCPolicy parameterizes one eviction sweep. A MaxBytes or MaxAge of
// zero or less leaves that axis unbounded, so the zero policy only
// collects orphaned tmps.
type GCPolicy struct {
	// MaxBytes caps the persistent tier's total entry bytes; the
	// sweep evicts oldest-first (mod time, then key) until under it.
	MaxBytes int64

	// MaxAge evicts entries last written longer than this ago,
	// regardless of size.
	MaxAge time.Duration

	// TmpAge is the orphaned-tmp cutoff; 0 means DefaultTmpAge,
	// negative collects every tmp file regardless of age (only safe
	// when no writer is live).
	TmpAge time.Duration

	// Now overrides the sweep's clock — tests plant mtimes and sweep
	// against a pinned instant. Zero means time.Now().
	Now time.Time
}

// GCResult reports what one eviction sweep saw and did.
type GCResult struct {
	// Scanned and ScannedBytes count the entries the sweep listed.
	Scanned      int
	ScannedBytes int64
	// EvictedAge and EvictedSize count entries removed by the age cap
	// and the size cap respectively; EvictedBytes totals both.
	EvictedAge   int
	EvictedSize  int
	EvictedBytes int64
	// TmpRemoved counts orphaned write intermediates collected.
	TmpRemoved int
	// Live and LiveBytes describe what remains.
	Live      int
	LiveBytes int64
}

// GC runs one eviction sweep over the persistent tier: collect
// orphaned tmps, evict entries past the age cap, then evict
// oldest-first (deterministic key tie-break) until under the size
// cap. A cache without a persistent tier sweeps nothing. Entries that
// vanish or fail to delete mid-sweep are tolerated — concurrent
// writers and competing sweeps race benignly.
func (c *Cache) GC(pol GCPolicy) (GCResult, error) {
	var res GCResult
	if c == nil {
		return res, nil
	}
	st := c.store
	if st == nil {
		return res, nil
	}
	defer c.gcRuns.Add(1)
	now := pol.Now
	if now.IsZero() {
		now = time.Now()
	}
	if sw, ok := st.(TmpSweeper); ok {
		tmpAge := pol.TmpAge
		if tmpAge == 0 {
			tmpAge = DefaultTmpAge
		}
		if tmpAge < 0 {
			// Collect everything: a far-future cutoff beats any mtime,
			// including tmps written while this sweep runs.
			tmpAge = -(1 << 62)
		}
		removed, err := sw.SweepOrphans(now.Add(-tmpAge))
		res.TmpRemoved = removed
		c.gcTmpRemoved.Add(int64(removed))
		if err != nil {
			return res, fmt.Errorf("cache: sweeping orphaned tmps: %w", err)
		}
	}

	infos, err := st.List()
	if err != nil {
		return res, err
	}
	res.Scanned = len(infos)
	for _, info := range infos {
		res.ScannedBytes += info.Size
	}

	evict := func(info BlobInfo, byAge bool) {
		if st.Delete(info.Key) != nil {
			// The entry stays; count it live below. A persistent
			// delete failure will resurface on the next sweep.
			res.Live++
			res.LiveBytes += info.Size
			return
		}
		if byAge {
			res.EvictedAge++
		} else {
			res.EvictedSize++
		}
		res.EvictedBytes += info.Size
		c.gcEvictions.Add(1)
		c.gcEvictedBytes.Add(info.Size)
	}

	// Age pass: anything last written before the cutoff goes,
	// regardless of the size budget.
	survivors := infos[:0]
	if pol.MaxAge > 0 {
		cutoff := now.Add(-pol.MaxAge)
		for _, info := range infos {
			if info.ModTime.Before(cutoff) {
				evict(info, true)
				continue
			}
			survivors = append(survivors, info)
		}
	} else {
		survivors = infos
	}

	// Size pass: oldest first, ties broken on the key's hex form so
	// two sweeps of the same state — on any machine — evict the same
	// entries in the same order.
	if pol.MaxBytes > 0 {
		sort.Slice(survivors, func(i, j int) bool {
			if !survivors[i].ModTime.Equal(survivors[j].ModTime) {
				return survivors[i].ModTime.Before(survivors[j].ModTime)
			}
			return survivors[i].Key.String() < survivors[j].Key.String()
		})
		total := int64(0)
		for _, info := range survivors {
			total += info.Size
		}
		keep := survivors
		for len(keep) > 0 && total > pol.MaxBytes {
			info := keep[0]
			keep = keep[1:]
			total -= info.Size
			evict(info, false)
		}
		survivors = keep
	}

	for _, info := range survivors {
		res.Live++
		res.LiveBytes += info.Size
	}
	return res, nil
}

// VerifyResult reports what one integrity pass saw and did.
type VerifyResult struct {
	// Checked counts entries read and handed to the decoder.
	Checked int
	// Removed and RemovedBytes count garbage entries deleted —
	// unreadable, empty, or failing the decode check.
	Removed      int
	RemovedBytes int64
}

// Verify runs an integrity pass over the persistent tier: every entry
// is read and handed to check; entries that cannot be read (torn or
// empty blobs) or that check rejects are deleted. A nil check keeps
// any readable entry. Like GC, Verify runs safely against live
// traffic: a deleted entry is a future miss, and misses recompute.
//
// check receives the entry's key and raw value; the engine's cached
// front decoder is the canonical choice.
func (c *Cache) Verify(check func(key Key, val []byte) error) (VerifyResult, error) {
	var res VerifyResult
	if c == nil {
		return res, nil
	}
	st := c.store
	if st == nil {
		return res, nil
	}
	infos, err := st.List()
	if err != nil {
		return res, err
	}
	for _, info := range infos {
		val, ok := st.Get(info.Key)
		if ok {
			res.Checked++
			if check == nil || check(info.Key, val) == nil {
				continue
			}
		} else if _, still := st.Stat(info.Key); !still {
			// Vanished between List and Get: a concurrent sweep or
			// eviction, not garbage. Nothing to remove.
			continue
		}
		if st.Delete(info.Key) != nil {
			continue
		}
		res.Removed++
		res.RemovedBytes += info.Size
		c.gcVerifyRemoved.Add(1)
	}
	return res, nil
}
