package core

import (
	"sync"

	"storagesched/internal/model"
)

// Scratch holds the reusable non-escaping buffers of the solver loops —
// per-processor loads and memory sizes, and the Algorithm 2 ready list,
// predecessor counts, ready times and processor order — so a warm sweep
// performs O(1) allocations per (item, δ) job instead of O(n). A Scratch
// is not safe for concurrent use; hold one per worker (the sweep engine
// does) or pass nil to let the solver borrow one from an internal
// sync.Pool.
type Scratch struct {
	load    []model.Time
	mem     []model.Mem
	readyAt []model.Time
	ints    []int // Algorithm 2's per-task and per-processor int slices, back to back
}

// NewScratch returns an empty scratch; its buffers grow on first use
// and are reused across runs.
func NewScratch() *Scratch { return &Scratch{} }

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// borrowScratch returns scr as-is, or a pooled scratch (to be handed
// back via releaseScratch) when scr is nil.
func borrowScratch(scr *Scratch) (*Scratch, bool) {
	if scr != nil {
		return scr, false
	}
	return scratchPool.Get().(*Scratch), true
}

func releaseScratch(scr *Scratch, pooled bool) {
	if pooled {
		scratchPool.Put(scr)
	}
}

// zeroed returns *buf resliced to a zeroed length n, growing it first
// when its capacity is short.
func zeroed[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	s := (*buf)[:n]
	clear(s)
	return s
}

// maxTimeOf returns the maximum of a non-empty Time slice, 0 for empty.
func maxTimeOf(s []model.Time) model.Time {
	var mx model.Time
	for _, v := range s {
		if v > mx {
			mx = v
		}
	}
	return mx
}

// maxMemOf returns the maximum of a non-empty Mem slice, 0 for empty.
func maxMemOf(s []model.Mem) model.Mem {
	var mx model.Mem
	for _, v := range s {
		if v > mx {
			mx = v
		}
	}
	return mx
}
