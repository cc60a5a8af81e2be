package main

import (
	"errors"
	"fmt"
	"sort"

	"qcdoc/internal/core"
	"qcdoc/internal/event"
	"qcdoc/internal/faultplan"
	"qcdoc/internal/fermion"
	"qcdoc/internal/fleet"
	"qcdoc/internal/geom"
	"qcdoc/internal/lattice"
	"qcdoc/internal/machine"
)

// fleetInstance is the chaos campaign: six runs over a shared pool, two
// at a time.
type fleetInstance struct {
	specs   []fleet.Spec
	pool    *machine.Pool
	workers int
	strict  bool // default seed: every run must converge
	pinned  uint64
}

// setupFleet mirrors `qcdoc fleet`: first-order fault seeds 7..10 on a
// 2x2 machine and the -storm preset's compound seeds 1 and 19 on 2x2x2.
// The fault seeds are part of the workload; the lattice seed is 4000+seed.
func setupFleet(seed uint64, smoke bool) (instance, error) {
	base := fleet.Spec{
		Machine:         geom.MakeShape(2, 2),
		Op:              fermion.WilsonKind,
		Mass:            0.5,
		Seed:            4000 + seed,
		Tol:             1e-8,
		MaxIter:         400,
		CheckpointEvery: 10,
		Chaos:           true,
		Faults: faultplan.Spec{
			From:        2 * event.Millisecond,
			To:          10 * event.Millisecond,
			NodeCrashes: 1,
			NetDrops:    2,
			NetDups:     1,
			LinkBursts:  1,
		},
	}
	storm := base
	storm.Machine = geom.MakeShape(2, 2, 2)
	storm.MaxAttempts = 6
	storm.Faults.ChunkCorrupts += 2
	storm.Faults.ChunkTorns++
	storm.Faults.WatchdogFalsePositives++
	storm.Faults.RecoveryCrashes++
	lat := []lattice.Shape4{{4, 4, 4, 4}}
	first, compound := []uint64{7, 8, 9, 10}, []uint64{1, 19}
	if smoke {
		base.Machine, lat, first, compound = geom.MakeShape(2), []lattice.Shape4{{4, 2, 2, 2}}, first[:1], nil
	}
	specs := append(fleet.Sweep(base, lat, nil, first), fleet.Sweep(storm, lat, nil, compound)...)
	in := &fleetInstance{specs: specs, pool: machine.NewPool(), workers: 2, strict: seed == defaultSeed}
	if in.strict && !smoke {
		in.pinned = pinnedDigest("fleet_storm_6run")
	}
	return in, nil
}

// check fails a campaign on an untyped error or a run that did not
// converge. Away from the default seed a typed ladder exhaustion is a
// completed run: the machine degraded as designed, and the digest
// comparison across repetitions still covers it.
func (in *fleetInstance) check(rs []fleet.Result) error {
	for _, r := range rs {
		laddered := errors.Is(r.Err, core.ErrPartitionExhausted) || errors.Is(r.Err, core.ErrCheckpointUnrecoverable)
		switch {
		case r.Err != nil && (in.strict || !laddered):
			return fmt.Errorf("%s: %w", r.Name, r.Err)
		case r.Err == nil && !r.Converged:
			return fmt.Errorf("%s: did not converge", r.Name)
		}
	}
	return nil
}

func (in *fleetInstance) op(tr *tracer) (opOut, error) {
	out := opOut{}
	ps0 := in.pool.Stats()
	tr.begin("fleet", "run")
	rs := fleet.Run(fleet.Config{Workers: in.workers, Pool: in.pool, Observe: tr != nil}, in.specs)
	wall := tr.end()
	if err := in.check(rs); err != nil {
		return out, err
	}
	iters := 0
	for _, r := range rs {
		out.simS += r.SimTime.Seconds()
		iters += r.Iterations
	}
	out.digest = fleet.Digest(rs)
	if tr == nil {
		return out, nil
	}
	agg := fleet.Aggregate(rs)
	// Pool traffic of this operation alone: the pool outlives operations.
	ps := in.pool.Stats()
	reused := ps.StorageReused - ps0.StorageReused + ps.RingsReused - ps0.RingsReused
	fresh := ps.StorageFresh - ps0.StorageFresh + ps.RingsFresh - ps0.RingsFresh
	out.layer = map[string]float64{
		"fleet.runs":                  float64(len(rs)),
		"fleet.runs_per_s":            float64(len(rs)) / wall,
		"solver.iterations":           float64(iters),
		"core.sim_s":                  out.simS,
		"checkpoint.chunk_writes":     float64(agg["machine/ckpt_chunk_write_ps"].Count),
		"qmp.global_sums":             float64(agg["machine/gsum_rtt_ps"].Count),
		"qmp.gsum_sim_ns_p50":         float64(agg["machine/gsum_rtt_ps"].P50) / 1000,
		"machine.pool_plan_hits":      float64(ps.PlanHits - ps0.PlanHits),
		"machine.pool_pending_events": float64(ps.PendingEvents),
		"machine.pool_reuse_ratio":    float64(reused) / float64(reused+fresh),
		"core.sim_digest_match":       1,
	}
	if in.pinned != 0 && out.digest != in.pinned {
		out.layer["core.sim_digest_match"] = 0
	}
	return out, nil
}

// extras runs the same campaign at one worker (the serial baseline and
// the serial-vs-concurrent digest check) and then each spec directly
// through core.RunChaosWilson, whose outcome carries the recovery
// ladder's rungs that fleet.Result does not.
func (in *fleetInstance) extras(darkWall float64, digest uint64, m map[string]float64) error {
	start := now()
	rs := fleet.Run(fleet.Config{Workers: 1, Pool: in.pool}, in.specs)
	m["fleet.serial_s"] = since(start)
	m["fleet.parallel_speedup"] = m["fleet.serial_s"] / darkWall
	m["fleet.serial_digest_match"] = 0
	if err := in.check(rs); err != nil {
		return fmt.Errorf("serial campaign: %w", err)
	}
	if d := fleet.Digest(rs); d != digest {
		return fmt.Errorf("serial campaign digest %#x differs from the concurrent campaign's %#x", d, digest)
	}
	m["fleet.serial_digest_match"] = 1

	for _, k := range []string{"core.recovery_chunk_retries", "core.recovery_generation_fallbacks",
		"core.recovery_repartitions", "qdaemon.watchdog_detect_sim_us_p50"} {
		m[k] = 0
	}
	var detect []float64
	for _, s := range in.specs {
		o, err := core.RunChaosWilson(core.ChaosConfig{
			Shape: s.Machine, Global: s.Global, Seed: s.Seed, FaultSeed: s.FaultSeed,
			Mass: s.Mass, Tol: s.Tol, MaxIter: s.MaxIter, CheckpointEvery: s.CheckpointEvery,
			MaxAttempts: s.MaxAttempts, Spec: s.Faults, Pool: in.pool,
		})
		if o == nil {
			return fmt.Errorf("%s: %w", s.Name, err)
		}
		m["core.chaos_attempts"] += float64(len(o.Attempts))
		m["core.chaos_rungs"] += float64(len(o.Rungs))
		for _, r := range o.Rungs {
			switch r.Kind {
			case core.RungChunkRetry:
				m["core.recovery_chunk_retries"]++
			case core.RungGenerationFallback:
				m["core.recovery_generation_fallbacks"]++
			case core.RungRepartition:
				m["core.recovery_repartitions"]++
			}
		}
		for _, a := range o.Attempts {
			if a.Aborted {
				detect = append(detect, float64(a.Failure.DetectLatency)/float64(event.Microsecond))
			}
		}
	}
	sort.Float64s(detect)
	if len(detect) > 0 {
		m["qdaemon.watchdog_detect_sim_us_p50"] = quantile(detect, 0.5)
	}
	return nil
}
