package xennuma

import (
	"testing"

	"repro/internal/workload"
)

// BenchmarkCellConstruction isolates the per-cell machine cost from the
// simulation itself: one op is acquire (hypervisor build or warm-pool
// lease + reset), VM creation with guest backend and engine instance,
// and release. The fresh variant is the pre-pool cost every cell used
// to pay; the pooled variant is the steady-state cost of a sweep whose
// cells reuse one machine shape. scripts/bench_suite.sh records both in
// BENCH_suite.json — the gap between them is the warm pool's win. On a
// 2-vCPU Intel Xeon at GOMAXPROCS=2 (go1.24.0), fresh is about 350 µs,
// 204 KB and 231 allocations per cell, pooled about 240 µs, 1.1 KB and
// 13 allocations.
func BenchmarkCellConstruction(b *testing.B) {
	pol, err := ParsePolicy("first-touch")
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, o Options) {
		o = o.normalized()
		prof, err := workload.Get("swaptions")
		if err != nil {
			b.Fatal(err)
		}
		memBytes := vmMemBytes(scaledTopo(o.Scale), prof, o, 1)
		key := poolKey{scale: o.Scale, xenplus: o.XenPlus, vms: 1}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m, err := acquire(o, key)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := buildXenInstance(m, 0, prof, pol, pol.Static, o, nil, memBytes); err != nil {
				b.Fatal(err)
			}
			if o.Pool != nil {
				o.Pool.release(key, m)
			}
		}
	}
	b.Run("fresh", func(b *testing.B) {
		run(b, Options{Scale: 256, XenPlus: true})
	})
	b.Run("pooled", func(b *testing.B) {
		run(b, Options{Scale: 256, XenPlus: true, Pool: NewPool()})
	})
}
