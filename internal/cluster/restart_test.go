package cluster

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"repro/internal/gateway"
	"repro/internal/govern"
	"repro/internal/model"
	"repro/internal/tensor"
)

// governSeries adds what one governor contributes to every govern_*
// series on a registry it shares, from its Snapshot and CacheSnapshot.
func governSeries(g *govern.Governor, into map[string]int64) {
	add := func(name string, v int64) { into[name] += v }
	sanitize := strings.NewReplacer("/", "_", "-", "_", ".", "_")
	st, cs := g.Snapshot(), g.CacheSnapshot()
	add("govern_lanes", int64(len(st.Lanes)))
	for _, l := range st.Lanes {
		sfx, shedding := "_"+sanitize.Replace(l.Lane), int64(0)
		if l.Shedding {
			shedding = 1
		}
		add("govern_kv_blocks_total"+sfx, int64(l.TotalBlocks))
		add("govern_kv_blocks_free"+sfx, int64(l.FreeBlocks))
		add("govern_kv_blocks_effective"+sfx, int64(l.EffectiveBlocks))
		add("govern_kv_allocs_total"+sfx, int64(l.Allocations))
		add("govern_kv_preemptions_total"+sfx, int64(l.Preemptions))
		add("govern_kv_shedding"+sfx, shedding)
		add("govern_preemptions_total", int64(l.Preemptions))
		add("govern_shedding_lanes", shedding)
	}
	for _, l := range cs.Lanes {
		sfx := "_" + sanitize.Replace(l.Lane)
		add("govern_cache_hits_total"+sfx, int64(l.Hits))
		add("govern_cache_misses_total"+sfx, int64(l.Misses))
		add("govern_cache_hit_tokens_total"+sfx, int64(l.HitTokens))
		add("govern_cache_evictions_total"+sfx, int64(l.Evictions))
		add("govern_cache_retained_blocks"+sfx, int64(l.RetainedBlocks))
	}
	add("govern_cache_hits_total", int64(cs.Hits))
	add("govern_cache_misses_total", int64(cs.Misses))
	add("govern_cache_hit_tokens_total", int64(cs.HitTokens))
	add("govern_cache_evictions_total", int64(cs.Evictions))
}

// TestRestartReplicaRetiresItsGovernor restarts one of two governed
// replicas sharing a registry and holds every govern_* series to the sum
// over the live governors: the replaced governor's gauges (lanes, pool
// capacity, free blocks) leave the sums, and its counters keep their last
// values, so no counter goes backwards.
func TestRestartReplicaRetiresItsGovernor(t *testing.T) {
	m := model.Tiny(model.OPT)
	perBlock := m.KVBytesPerTokenPerLayer(tensor.BF16) * int64(m.Layers) * 16
	specs := func(string) (govern.PoolSpec, error) {
		return govern.PoolSpec{Model: m, DType: tensor.BF16, BlockSize: 16, BudgetBytes: 2048 * perBlock}, nil
	}
	tc := newTestCluster(t, 2, func(c *Config) {
		reg, inj := c.Registry, c.Injector
		c.Factory = func(string) (*gateway.Gateway, error) {
			gov := govern.New(govern.Config{Specs: specs, EnableCache: true, Registry: reg})
			return gateway.New(gateway.Config{MaxQueue: 256, MaxBatch: 8, Workers: 2, Registry: reg, Injector: inj,
				Governor: gov}, fastResolver()), nil
		}
	})
	governors := func() []*govern.Governor {
		return []*govern.Governor{tc.r.replicaByID("r0").gw.Governor(), tc.r.replicaByID("r1").gw.Governor()}
	}
	traffic := func() {
		for i := 0; i < 8; i++ {
			if _, err := tc.r.Generate(context.Background(), genReq()); err != nil {
				t.Fatal(err)
			}
		}
	}
	traffic()
	old := governors()[1]
	if n := len(old.Snapshot().Lanes); n != 1 {
		t.Fatalf("r1's governor governs %d lanes before the restart, want 1", n)
	}
	if err := tc.r.RestartReplica(context.Background(), "r1"); err != nil {
		t.Fatal(err)
	}
	traffic()
	live := governors()
	if live[1] == old || len(live[1].Snapshot().Lanes) != 1 {
		t.Fatal("the restarted replica's new governor took no traffic")
	}

	var buf syncBuffer
	if err := tc.reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"govern_shed_total": 0, "govern_quota_rejected_total": 0}
	for _, g := range live {
		governSeries(g, want)
	}
	retired := map[string]int64{}
	governSeries(old, retired)
	got := map[string]int64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" && f[3] == "counter" && retired[f[2]] != 0 {
			want[f[2]] += retired[f[2]]
		}
		name, v, ok := strings.Cut(line, " ")
		if !ok || !strings.HasPrefix(name, "govern_") {
			continue
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		got[name] = n
	}
	if got["govern_lanes"] != 2 {
		t.Errorf("govern_lanes = %d after one restart of two replicas, want 2", got["govern_lanes"])
	}
	for name, w := range want {
		if v, ok := got[name]; !ok {
			t.Errorf("%s missing from /metrics", name)
		} else if v != w {
			t.Errorf("%s = %d on /metrics, the live governors (and the retired one's counters) sum to %d", name, v, w)
		}
	}
	for name, v := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s = %d on /metrics, but no governor backs it", name, v)
		}
	}
}
