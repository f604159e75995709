package replication_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/replication"
)

// TestPromotionReplaysEveryReceivedTuple kills the primary mid-run and
// promotes the backup: every tuple the backup received off its log ring
// — acknowledged at receipt, so the primary may already have released
// output covered by it — must be replayed before the backup goes live,
// under either shard count.
func TestPromotionReplaysEveryReceivedTuple(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			d := newDuo(t, 11, shardedConfig(shards), true)
			var pCount, sCount int
			var backlog uint64
			d.pns.Start("app", nil, lockCounterApp(&pCount, 4, 200))
			d.sns.Start("app", nil, lockCounterApp(&sCount, 4, 200))
			d.sim.Schedule(40*time.Millisecond, func() {
				backlog = d.sns.Processed() - 1 - d.sns.Stats().Sections
				d.pk.Panic("injected failure", nil)
				d.sns.Replayer().Promote()
			})
			if err := d.sim.Run(); err != nil {
				t.Fatal(err)
			}
			if backlog == 0 {
				t.Fatal("the backup had replayed everything before the kill; the promotion drain is not exercised")
			}
			st := d.sns.Stats()
			// Processed counts every message off the ring, the env
			// message included.
			if want := d.sns.Processed() - 1; st.Sections != want {
				t.Errorf("backup replayed %d sections of the %d tuples it received", st.Sections, want)
			}
			if sCount != 4*200 {
				t.Errorf("backup finished %d increments, want %d", sCount, 4*200)
			}
			if d.sns.Role() != replication.RoleLive {
				t.Errorf("backup role = %v, want live", d.sns.Role())
			}
		})
	}
}
