package core

import (
	"qcdoc/internal/event"
	"qcdoc/internal/fermion"
	"qcdoc/internal/geom"
	"qcdoc/internal/lattice"
	"qcdoc/internal/machine"
)

// Session is a booted machine plus a lattice layout: the environment a
// QCD job runs in.
type Session struct {
	Eng *event.Engine
	M   *machine.Machine
	Lay Layout

	pool   *machine.Pool
	closed bool
}

// NewSession builds and boots a machine of the given shape and lays a
// global lattice over it.
func NewSession(machineShape geom.Shape, global lattice.Shape4) (*Session, error) {
	return NewSessionConfig(machine.DefaultConfig(machineShape), global)
}

// NewSessionConfig is NewSession with full machine configuration. When
// cfg.Pool is set, the engine's heap storage and the wires' frame rings
// come from (and return to, on Close) that pool.
func NewSessionConfig(cfg machine.Config, global lattice.Shape4) (*Session, error) {
	lay, err := NewLayout(cfg.Shape, global)
	if err != nil {
		return nil, err
	}
	eng := cfg.Pool.NewEngine()
	m := machine.Build(eng, cfg)
	if err := m.Boot(); err != nil {
		eng.Shutdown()
		cfg.Pool.Reclaim(eng, m)
		return nil, err
	}
	return &Session{Eng: eng, M: m, Lay: lay, pool: cfg.Pool}, nil
}

// Close releases the session's simulation resources and returns pooled
// storage. Idempotent: every call after the first is a no-op, so
// experiments can both defer it and close early on success paths.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.Eng.Shutdown()
	s.pool.Reclaim(s.Eng, s.M)
}

// firstOf returns the lowest-rank error from a per-rank error slice —
// the deterministic replacement for racing rank closures on one shared
// firstErr variable.
func firstOf(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// SolveMetrics reports a distributed solve.
type SolveMetrics struct {
	Iterations   int
	Applications int
	SimTime      event.Time // simulated time from launch until the last rank's program returned
	RelResidual  float64
	// UsefulFlops is the per-node operator + Krylov linear algebra work.
	UsefulFlops float64
	// SustainedPerNode is UsefulFlops / SimTime, in flops/s.
	SustainedPerNode float64
	// Efficiency is SustainedPerNode / peak node flops.
	Efficiency float64
	// CommStats snapshots the machine's SCU counters after the solve.
	WordsSent uint64
	Resends   uint64
}

// fillMetrics derives rates from counts. slices is 1 for 4-D operators
// and Ls for domain-wall fields (whose per-site costs are per slice).
func (s *Session) fillMetrics(met *SolveMetrics, kind fermion.OpKind, slices int) {
	vLocal := float64(s.Lay.Dec.LocalVolume()) * float64(slices)
	n := fermion.FieldReals(kind)
	// Operator applications plus the Krylov linear algebra (3 axpy + 2
	// dot per iteration at 2n flops per site each).
	met.UsefulFlops = float64(met.Applications)*fermion.FlopsPerSite(kind)*vLocal +
		float64(met.Iterations)*10*n*vLocal
	if met.SimTime > 0 {
		met.SustainedPerNode = met.UsefulFlops / met.SimTime.Seconds()
		peak := 2 * float64(s.M.Cfg.Clock)
		met.Efficiency = met.SustainedPerNode / peak
	}
	st := s.M.Stats()
	met.WordsSent = st.WordsSent
	met.Resends = st.Resends
}
