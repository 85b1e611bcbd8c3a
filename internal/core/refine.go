package core

import (
	"fmt"

	"bbsmine/internal/mining"
	"bbsmine/internal/obs"
	"bbsmine/internal/txdb"
)

// sequentialScan verifies candidate patterns by scanning the database
// (algorithm SequentialScan, Section 3.2): as many candidates as fit in
// memory are loaded, one pass counts them, and the process repeats until
// every candidate is verified. It returns the surviving patterns with exact
// supports and the number of false drops.
func (m *Miner) sequentialScan(candidates []Pattern, cfg Config) ([]Pattern, int, error) {
	scanTick := cfg.Observe.Tick()
	var verified []Pattern
	drops := 0
	for start := 0; start < len(candidates); {
		if err := cfg.ctxErr(); err != nil {
			return nil, 0, err
		}
		end := m.batchEnd(candidates, start, cfg.MemoryBudget)
		counter, err := m.countBatch(candidates[start:end])
		if err != nil {
			return nil, 0, fmt.Errorf("core: verification scan: %w", err)
		}
		cfg.Observe.AddScanBatch(counter.Tally())
		for _, c := range candidates[start:end] {
			s := counter.Support(c.Items)
			if s >= cfg.MinSupport {
				verified = append(verified, Pattern{Items: c.Items, Support: s, Exact: true})
			} else {
				drops++
				m.stats.AddFalseDrop()
			}
		}
		start = end
	}
	cfg.Observe.PhaseDone(obs.PhaseScanRefine, scanTick)
	return verified, drops, nil
}

// countBatch runs the verification pass over one batch of candidates: one
// scan of the live transactions, counted by one counter.
func (m *Miner) countBatch(batch []Pattern) (*mining.Counter, error) {
	counter := mining.NewCounter()
	for _, c := range batch {
		counter.Add(c.Items)
	}
	err := m.store.Scan(func(pos int, tx txdb.Transaction) bool {
		if m.idx.IsLive(pos) {
			counter.CountTransaction(tx.Items)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return counter, nil
}

// batchEnd returns the end of the batch starting at start such that the
// batch stays within the memory budget (at least one candidate is always
// taken so progress is guaranteed).
func (m *Miner) batchEnd(candidates []Pattern, start int, budget int64) int {
	var resident int64
	end := start
	for end < len(candidates) {
		c := candidates[end]
		size := int64(4*len(c.Items) + 48)
		if budget > 0 && resident+size > budget && end > start {
			break
		}
		resident += size
		end++
	}
	return end
}
