package bbsmine

import (
	"reflect"
	"testing"

	"bbsmine/internal/exp"
)

// parityBudget is the tier budget of TestStorageModesDoTheSameWork: about
// two thirds of the 100 KB dense index its workload builds, so half of it
// pins the hottest slices, the rest go cold and the frame pool left over
// faults and evicts on every mine.
const parityBudget = 64 << 10

// minCompressRatio is the floor on logical / resident index bytes for the
// flat compressed database of TestStorageModesDoTheSameWork. It measures
// 3.75 with the one-byte chunk directory of sparse slices and 2.06 with the
// four-byte directory before it, so a return to the old layout fails.
const minCompressRatio = 3.0

// storageRun is what one mine did: its answer, the work counters storage
// must not move, and its telemetry.
type storageRun struct {
	res    *Result
	counts [3]int64 // count calls, slice ANDs, probes
	obs    ObserverMetrics
}

func mineRun(t *testing.T, db *Database, opts MineOptions) storageRun {
	t.Helper()
	db.ResetStats()
	opts.Observe = NewObserver()
	res, err := db.Mine(opts)
	if err != nil {
		t.Fatal(err)
	}
	s := db.Stats()
	return storageRun{
		res:    res,
		counts: [3]int64{s.CountCalls, s.SliceAnds, s.Probes},
		obs:    opts.Observe.Metrics(),
	}
}

// TestStorageModesDoTheSameWork mines the paper's default workload at 5 %
// scale (500 transactions, M 1600, K 4, τ 1 %) with every scheme over three
// storages of the same index — resident, compressed after the fill, and
// tiered under a 64 KiB budget after a profiling DFP mine — flat and over
// two shards. Storage moves bytes, never bits: each scheme's Result, its
// count calls, slice ANDs and probes, its funnel and its early exits must be
// the same in all three. A compressed or cold kernel that drops one bit
// shows up here as a different count or funnel. The tiered mines must also
// fault, hit and evict inside the budget, and the flat compressed index must
// stay minCompressRatio times smaller than its dense size.
func TestStorageModesDoTheSameWork(t *testing.T) {
	p := exp.Defaults(0.05)
	p.TauFrac = 0.01
	txs, err := p.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	tau := p.Tau(len(txs))
	fill := func(shards int) *Database {
		db := NewInMemory(Options{M: p.M, K: p.K, Shards: shards})
		for _, tx := range txs {
			if err := db.Append(tx.TID, tx.Items); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	schemes := []Scheme{SFS, DFS, SFP, DFP}
	for _, shards := range []int{1, 2} {
		resident, compressed, tiered := fill(shards), fill(shards), fill(shards)
		compressed.SetCompression(true)
		if shards == 1 {
			ratio := float64(compressed.IndexBytes()) / float64(compressed.ResidentIndexBytes())
			if ratio < minCompressRatio {
				t.Errorf("compressed index is %.2fx smaller than dense (%d of %d bytes), below the %.1fx floor",
					ratio, compressed.ResidentIndexBytes(), compressed.IndexBytes(), minCompressRatio)
			}
		}
		profile := NewObserver()
		if _, err := tiered.Mine(MineOptions{MinSupportCount: tau, Scheme: DFP, Workers: 1, Observe: profile}); err != nil {
			t.Fatal(err)
		}
		if err := tiered.Tier(parityBudget, t.TempDir(), profile.SliceTouches()); err != nil {
			t.Fatal(err)
		}
		if ts := tiered.TierStats(); ts.SlicesCold == 0 {
			t.Fatalf("shards=%d: no slice went cold under a %d-byte budget: %+v", shards, parityBudget, ts)
		}

		for _, scheme := range schemes {
			opts := MineOptions{MinSupportCount: tau, Scheme: scheme, Workers: 1}
			want := mineRun(t, resident, opts)
			if len(want.res.Patterns) == 0 {
				t.Fatalf("shards=%d %v: the workload mines nothing", shards, scheme)
			}
			before := tiered.TierStats()
			for name, got := range map[string]storageRun{
				"compressed": mineRun(t, compressed, opts),
				"tiered":     mineRun(t, tiered, opts),
			} {
				if !reflect.DeepEqual(got.res, want.res) {
					t.Errorf("shards=%d %v %s: result differs from resident (%d vs %d patterns)",
						shards, scheme, name, len(got.res.Patterns), len(want.res.Patterns))
				}
				if got.counts != want.counts {
					t.Errorf("shards=%d %v %s: count calls, slice ANDs, probes %v, resident %v",
						shards, scheme, name, got.counts, want.counts)
				}
				if got.obs.Funnel != want.obs.Funnel {
					t.Errorf("shards=%d %v %s: funnel %+v, resident %+v",
						shards, scheme, name, got.obs.Funnel, want.obs.Funnel)
				}
				if got.obs.Kernel.EarlyExits != want.obs.Kernel.EarlyExits {
					t.Errorf("shards=%d %v %s: %d early exits, resident %d",
						shards, scheme, name, got.obs.Kernel.EarlyExits, want.obs.Kernel.EarlyExits)
				}
			}

			after := tiered.TierStats()
			if after.Faults == before.Faults || after.Hits == before.Hits || after.Evictions == before.Evictions {
				t.Errorf("shards=%d %v: the tiered mine left the pool idle (faults %d→%d, hits %d→%d, evictions %d→%d)",
					shards, scheme, before.Faults, after.Faults, before.Hits, after.Hits, before.Evictions, after.Evictions)
			}
			if held := after.ResidentBytes + after.ReservedBytes; held > parityBudget {
				t.Errorf("shards=%d %v: the pool holds %d bytes under a %d-byte budget", shards, scheme, held, parityBudget)
			}
		}
	}
}
