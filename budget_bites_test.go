package bbsmine

import (
	"reflect"
	"testing"
)

// TestMemBudgetBoundsShardedMine pins that a sharded mine lives inside the
// Tier budget: it reads the shards' own slices, so every mine of a tiered
// 2-shard database faults cold pages through the pool — the second at an
// unchanged database as much as the first (a private resident copy of the
// index, cached between writes, used to serve it without touching the pool)
// — and what the pool holds afterwards fits the budget. Answers equal the
// untiered database's.
func TestMemBudgetBoundsShardedMine(t *testing.T) {
	resident := NewInMemory(Options{M: 128, K: 3, Shards: 2})
	txs := fillRandom(t, resident, 81, 16000, 7, 25)
	tiered := NewInMemory(Options{M: 128, K: 3, Shards: 2})
	for _, tx := range txs {
		if err := tiered.Append(tx.TID, tx.Items); err != nil {
			t.Fatal(err)
		}
	}
	budget := tiered.ResidentIndexBytes() / 2
	if err := tiered.Tier(budget, t.TempDir(), nil); err != nil {
		t.Fatal(err)
	}
	opts := MineOptions{MinSupportCount: 200, Scheme: DFP, Workers: 1}
	want, err := resident.Mine(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Patterns) == 0 {
		t.Fatal("the fixture mines nothing")
	}
	faults := int64(0)
	for round := 1; round <= 2; round++ {
		got, err := tiered.Mine(opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("mine %d: tiered result differs from the untiered one", round)
		}
		ts := tiered.TierStats()
		if ts.Faults <= faults {
			t.Errorf("mine %d faulted nothing (%d faults before, %d after): it did not read through the pool", round, faults, ts.Faults)
		}
		faults = ts.Faults
		if ts.ResidentBytes+ts.ReservedBytes > budget {
			t.Errorf("mine %d left %d frame + %d reserved bytes resident under a %d-byte budget", round, ts.ResidentBytes, ts.ReservedBytes, budget)
		}
		if ts.Evictions == 0 {
			t.Errorf("mine %d evicted nothing; the budget was never under pressure: %+v", round, ts)
		}
	}
}
