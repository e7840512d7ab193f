package obs

// Sharded command-event capture for parallel execution.
//
// The parallel execution core (internal/exec) runs one command train per
// (bank, row) while holding that bank's shard lock, so at any moment exactly
// one goroutine emits command events for a given bank.  A ShardSet exploits
// that: it routes those events into private per-bank buffers with no tracer
// lock at all, then — after the worker barrier, still under the bank locks —
// merges them in the order the serial path would have produced (ascending row
// index, emission order within a row), reserves a contiguous block of
// sequence numbers, and delivers the batch to the sinks in one critical
// section.  Traces captured this way are byte-identical to a serial run of
// the same program.
//
// Contract, in the order the caller must follow:
//
//	eng.LockBanks(banks)
//	ss := tracer.BeginShards(banks)      // routes installed
//	...workers: ss.SetRow(bank, row) then emit that row's commands...
//	ss.MergeAndEmit()                    // routes removed, batch delivered
//	eng.UnlockBanks(banks)
//
// BeginShards must be called while the banks' execution shard locks are held
// and MergeAndEmit before they are released (or, as Batch.Run does, while
// the caller excludes every other operation from the device); that is what
// guarantees the single-writer-per-shard rule and keeps concurrent
// ShardSets (operations on disjoint banks) from ever sharing a bank.
// MergeAndEmit recycles the set: the ShardSet must not be used again after
// it returns.

import "sort"

// shard is one bank's private capture buffer: parallel arrays of events and
// the row index each belongs to (rows drives the deterministic merge without
// touching the much wider events).  Only the goroutine holding the bank's
// execution shard lock touches it; the merge reads it after the worker
// barrier.  Buffers are recycled without clearing — every captured event is
// fully written by its producer, so entries beyond len are just bounded
// garbage keeping at most one operation's strings alive.
type shard struct {
	row  int
	rows []int
	evs  []Event
}

// shardByRow stable-sorts one shard's parallel arrays by row.
type shardByRow shard

func (s *shardByRow) Len() int           { return len(s.rows) }
func (s *shardByRow) Less(i, j int) bool { return s.rows[i] < s.rows[j] }
func (s *shardByRow) Swap(i, j int) {
	s.rows[i], s.rows[j] = s.rows[j], s.rows[i]
	s.evs[i], s.evs[j] = s.evs[j], s.evs[i]
}

// append adds one captured event tagged with the shard's current row.
func (sh *shard) append(e Event) {
	sh.rows = append(sh.rows, sh.row)
	sh.evs = append(sh.evs, e)
}

// extend grows the shard by n events tagged with the current row and returns
// the slice to fill in place.  The entries are NOT zeroed (buffers recycle);
// the caller must set every Event field.
func (sh *shard) extend(n int) []Event {
	for i := 0; i < n; i++ {
		sh.rows = append(sh.rows, sh.row)
	}
	old := len(sh.evs)
	need := old + n
	if cap(sh.evs) < need {
		grown := make([]Event, old, max(2*cap(sh.evs), need))
		copy(grown, sh.evs)
		sh.evs = grown
	}
	sh.evs = sh.evs[:need]
	return sh.evs[old:need:need]
}

// CommandBuffer is a single-writer, in-place view of one bank's capture
// shard, for hot emitters that produce a whole command train at once.  The
// zero value is inert.
type CommandBuffer struct {
	sh *shard
}

// CommandBuffer returns the in-place capture view for the bank, or an inert
// zero value when the tracer is nil or no ShardSet routes the bank.  The
// caller must hold the bank's execution shard lock (the BeginShards
// contract) and must check Active before calling Extend.
func (t *Tracer) CommandBuffer(bank int) CommandBuffer {
	if t == nil {
		return CommandBuffer{}
	}
	if rt := t.routes.Load(); rt != nil && bank >= 0 && bank < len(rt.shards) {
		return CommandBuffer{sh: rt.shards[bank]}
	}
	return CommandBuffer{}
}

// Active reports whether the buffer is routed to a live shard.
func (cb CommandBuffer) Active() bool { return cb.sh != nil }

// Extend appends n events tagged with the shard's current row and returns
// the slice to fill in place — the zero-copy equivalent of n Tracer.Emit
// calls for relative-time command events.  The entries are NOT zeroed: the
// caller must assign every Event field except Seq, which the merge assigns
// unconditionally.
func (cb CommandBuffer) Extend(n int) []Event { return cb.sh.extend(n) }

// routeTable maps bank -> shard (indexed by bank; nil = unrouted) for every
// active ShardSet.  It is immutable once published; BeginShards and
// MergeAndEmit replace it copy-on-write.
type routeTable struct {
	shards []*shard
}

// ShardSet is one parallel operation's set of capture shards.  A nil
// *ShardSet is valid and inert (BeginShards returns nil when tracing is
// disabled), so callers use it unconditionally.  Sets and their buffers are
// pooled per tracer: MergeAndEmit recycles the set, so per-operation capture
// is allocation-free in steady state.
type ShardSet struct {
	t       *Tracer
	banks   []int
	byBank  []*shard // sparse, indexed by bank; entries cleared on recycle
	pool    []*shard // shard objects owned by this set, reused across uses
	cursors []int    // per-bank merge cursors, reused across uses
}

// BeginShards installs capture shards for the given banks and returns the
// set, or nil when the tracer is nil, disabled, or banks is empty.  The
// caller must hold the banks' execution shard locks (see the package-level
// contract above).
func (t *Tracer) BeginShards(banks []int) *ShardSet {
	if !t.Enabled() || len(banks) == 0 {
		return nil
	}
	ss, _ := t.shardSets.Get().(*ShardSet)
	if ss == nil {
		ss = &ShardSet{}
	}
	ss.t = t
	ss.banks = append(ss.banks[:0], banks...)
	maxBank := 0
	for _, b := range ss.banks {
		if b > maxBank {
			maxBank = b
		}
	}
	if len(ss.byBank) <= maxBank {
		ss.byBank = make([]*shard, maxBank+1)
	}
	for len(ss.pool) < len(ss.banks) {
		ss.pool = append(ss.pool, &shard{})
	}
	for i, b := range ss.banks {
		sh := ss.pool[i]
		sh.row = -1
		ss.byBank[b] = sh
	}

	t.shardMu.Lock()
	defer t.shardMu.Unlock()
	var old []*shard
	if rt := t.routes.Load(); rt != nil {
		old = rt.shards
	}
	n := len(old)
	if maxBank+1 > n {
		n = maxBank + 1
	}
	next := make([]*shard, n)
	copy(next, old)
	for _, b := range ss.banks {
		next[b] = ss.byBank[b]
	}
	t.routes.Store(&routeTable{shards: next})
	return ss
}

// SetRow tags the bank's shard with the row index whose command train is
// about to execute; every event captured for the bank until the next SetRow
// carries it.  Called by the worker holding the bank's execution shard lock.
func (ss *ShardSet) SetRow(bank, row int) {
	if ss == nil {
		return
	}
	if bank >= 0 && bank < len(ss.byBank) {
		if sh := ss.byBank[bank]; sh != nil {
			sh.row = row
		}
	}
}

// MergeAndEmit removes the set's routes, merges the captured events into the
// serial emission order (stable by row index), assigns them a contiguous
// block of sequence numbers, and delivers the batch to the sinks in one
// critical section.  Must be called after the worker barrier and before the
// banks' execution shard locks are released.  It recycles the set into the
// tracer's pool: the caller must not touch the ShardSet afterwards.
func (ss *ShardSet) MergeAndEmit() {
	if ss == nil {
		return
	}
	t := ss.t

	t.shardMu.Lock()
	if rt := t.routes.Load(); rt != nil {
		// A shard not owned by this set belongs to a concurrent set on
		// disjoint banks; only then is a trimmed route table needed.
		live := false
		for b, sh := range rt.shards {
			if sh != nil && (b >= len(ss.byBank) || ss.byBank[b] != sh) {
				live = true
				break
			}
		}
		if !live {
			t.routes.Store(nil)
		} else {
			next := make([]*shard, len(rt.shards))
			copy(next, rt.shards)
			for _, b := range ss.banks {
				if b < len(next) {
					next[b] = nil
				}
			}
			t.routes.Store(&routeTable{shards: next})
		}
	}
	t.shardMu.Unlock()

	n := 0
	for _, b := range ss.banks {
		n += len(ss.byBank[b].rows)
	}
	if n > 0 {
		// Row indices are unique across banks and a row's events form one
		// contiguous run in its bank's buffer, so once every shard is
		// ascending by row, a k-way merge — emitting each row's whole run
		// from the shard holding the smallest pending row — reproduces the
		// serial path's global order exactly, in place, without copying the
		// captured events.  Workers usually drain a bank's rows in ascending
		// order, so the per-shard stable sort is rarely paid.
		for _, b := range ss.banks {
			sh := ss.byBank[b]
			for k := 1; k < len(sh.rows); k++ {
				if sh.rows[k] < sh.rows[k-1] {
					sort.Stable((*shardByRow)(sh))
					break
				}
			}
		}
		cursors := ss.cursors[:0]
		for range ss.banks {
			cursors = append(cursors, 0)
		}
		ss.cursors = cursors
		seq := t.seq.Add(uint64(n)) - uint64(n)
		t.mu.Lock()
		for emitted := 0; emitted < n; {
			best, bestRow := -1, 0
			for i, b := range ss.banks {
				rows := ss.byBank[b].rows
				if c := cursors[i]; c < len(rows) {
					if best < 0 || rows[c] < bestRow {
						best, bestRow = i, rows[c]
					}
				}
			}
			sh := ss.byBank[ss.banks[best]]
			c := cursors[best]
			for c < len(sh.rows) && sh.rows[c] == bestRow {
				seq++
				sh.evs[c].Seq = seq
				for _, s := range t.sinks {
					s.Emit(sh.evs[c])
				}
				c++
				emitted++
			}
			cursors[best] = c
		}
		t.mu.Unlock()
	}
	for _, b := range ss.banks {
		sh := ss.byBank[b]
		sh.rows = sh.rows[:0]
		sh.evs = sh.evs[:0]
		ss.byBank[b] = nil
	}
	ss.banks = ss.banks[:0]
	t.shardSets.Put(ss)
}
