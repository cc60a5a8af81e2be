package core

// The recovery supervisor: the escalation ladder a chaos run climbs
// when faults compound (DESIGN.md §16). One rung at a time:
//
//  1. chunk-read retry — a checkpoint chunk that fails validation is
//     re-read under a deterministic sim-time backoff budget (the same
//     bounded-attempts/doubling-backoff policy the qdaemon's exchange()
//     applies to lost datagrams, applied to the host RAID);
//  2. generation fallback — when the newest complete checkpoint
//     generation stays invalid (corrupt, torn), restore falls back to
//     the next older one; the host keeps K generations, indexed by a
//     CRC-validated manifest (internal/checkpoint);
//  3. re-detection — a fault landing mid-recovery (a second death
//     while the partition is still re-forming) is picked up before the
//     job relaunches and re-enters detection/isolation;
//  4. repartition — cumulative FRU loss shrinks the job to the next
//     LargestPow2Partition;
//  5. typed failure — only when the ladder is exhausted:
//     ErrPartitionExhausted when no power-of-2 partition remains,
//     ErrCheckpointUnrecoverable when generations exist but none
//     restores.
//
// Every rung climbed is recorded as a RungRecord and folded into the
// outcome digest: two same-seed runs must climb the same ladder at the
// same picoseconds, at workers=1 and workers=8 alike.

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"qcdoc/internal/checkpoint"
	"qcdoc/internal/event"
	"qcdoc/internal/lattice"
	"qcdoc/internal/qdaemon"
	"qcdoc/internal/telemetry"
)

// Typed ladder-exhaustion errors.
var (
	// ErrPartitionExhausted: cumulative FRU loss left no healthy
	// power-of-2 partition to shrink to.
	ErrPartitionExhausted = errors.New("core: no healthy power-of-2 partition remains")
	// ErrCheckpointUnrecoverable: checkpoint generations were sealed,
	// but every retained one failed restore (corrupt, torn, or
	// incomplete after retries). A cold start would silently discard
	// converged work, so this is an error, not a rung.
	ErrCheckpointUnrecoverable = errors.New("core: no retained checkpoint generation is restorable")
)

// The supervisor's ladder policy.
const (
	// generations is K, the number of complete checkpoint generations
	// retained on the host (older ones are pruned at seal time).
	generations = 3
	// chunkRetries bounds re-reads of one invalid chunk beyond the first
	// attempt.
	chunkRetries = 2
	// chunkBackoff is the first retry's sim-time backoff; it doubles per
	// retry, exchange()-style.
	chunkBackoff = 50 * event.Microsecond
	// backoffBudget caps the total backoff slept per restore; once spent,
	// invalid chunks fail straight to generation fallback.
	backoffBudget = 2 * event.Millisecond
	// raidReadLatency and raidReadBps model the host RAID: each chunk
	// read costs raidReadLatency plus size/raidReadBps of sim time.
	raidReadLatency = 5 * event.Microsecond
	raidReadBps     = 2_000_000_000
)

// RungKind identifies one kind of ladder action.
type RungKind uint8

const (
	// RungChunkRetry: one invalid chunk read retried after backoff.
	RungChunkRetry RungKind = iota + 1
	// RungGenerationFallback: a generation failed restore; stepping to
	// the next older one.
	RungGenerationFallback
	// RungColdStart: no generation was ever sealed; restarting from
	// iteration zero.
	RungColdStart
	// RungRepartition: FRU loss shrank the job to a smaller power-of-2
	// partition.
	RungRepartition
	// RungFalsePositive: the watchdog probed and rejected a spurious
	// death report.
	RungFalsePositive
	// RungRedetect: a fault landed mid-recovery; detection/isolation
	// re-entered before the job relaunched.
	RungRedetect
	// RungManifestRebuild: the stored manifest failed validation and
	// was rebuilt by scanning the chunk store.
	RungManifestRebuild
)

func (k RungKind) String() string {
	switch k {
	case RungChunkRetry:
		return "chunk-retry"
	case RungGenerationFallback:
		return "generation-fallback"
	case RungColdStart:
		return "cold-start"
	case RungRepartition:
		return "repartition"
	case RungFalsePositive:
		return "false-positive"
	case RungRedetect:
		return "redetect"
	case RungManifestRebuild:
		return "manifest-rebuild"
	}
	return fmt.Sprintf("rung(%d)", uint8(k))
}

// RungRecord is one ladder action, digest-folded.
type RungRecord struct {
	// Attempt is the attempt climbing the rung.
	Attempt int
	Kind    RungKind
	// Rank is the chunk's or node's rank, -1 when not rank-scoped.
	Rank int
	// Gen carries the rung's magnitude: the generation index fallen
	// past, the shrunken partition size, or zero.
	Gen int
	// At is the sim time of the action on the attempt's clock.
	At event.Time
}

func (r RungRecord) String() string {
	return fmt.Sprintf("a%d %s rank=%d gen=%d at %v", r.Attempt, r.Kind, r.Rank, r.Gen, r.At)
}

// RecoveryStats are the supervisor's cumulative counters, exported
// through the telemetry registry of every attempt's machine.
type RecoveryStats struct {
	Restores            uint64
	ChunkRetries        uint64
	GenerationFallbacks uint64
	ColdStarts          uint64
	Repartitions        uint64
	Redetects           uint64
	ManifestRebuilds    uint64
}

// manifestName is the host-storage path of the generation manifest.
const manifestName = "ckpt/chaos/MANIFEST"

// supervisor drives the recovery ladder across a chaos run's attempts.
// It owns the one artifact that outlives an attempt — the host FS —
// plus the ladder's record and statistics.
type supervisor struct {
	fs     map[string][]byte
	global lattice.Shape4
	logf   func(string, ...any)

	stats RecoveryStats
	rungs []RungRecord

	// Per-attempt latency histograms (fresh each attempt, registered on
	// that attempt's machine registry; the run outcome merges the
	// per-attempt snapshots, so the merged totals are exact).
	backoffWait   *telemetry.Histogram
	fallbackDepth *telemetry.Histogram
}

func newSupervisor(fs map[string][]byte, global lattice.Shape4, logf func(string, ...any)) *supervisor {
	return &supervisor{fs: fs, global: global, logf: logf}
}

// beginAttempt resets the per-attempt histograms and registers the
// supervisor's observability on the attempt's machine registry.
func (sup *supervisor) beginAttempt(reg *telemetry.Registry) {
	sup.backoffWait = &telemetry.Histogram{}
	sup.fallbackDepth = &telemetry.Histogram{}
	reg.RegisterCounters("recovery", func(emit telemetry.EmitFunc) {
		emit("restores", sup.stats.Restores)
		emit("chunk_retries", sup.stats.ChunkRetries)
		emit("generation_fallbacks", sup.stats.GenerationFallbacks)
		emit("cold_starts", sup.stats.ColdStarts)
		emit("repartitions", sup.stats.Repartitions)
		emit("redetects", sup.stats.Redetects)
		emit("manifest_rebuilds", sup.stats.ManifestRebuilds)
	})
	reg.RegisterHistograms("recovery", func(emit telemetry.HistEmitFunc) {
		emit("backoff_wait_ps", sup.backoffWait.Snapshot())
		emit("generation_fallback_depth", sup.fallbackDepth.Snapshot())
	})
}

func (sup *supervisor) rung(attempt int, kind RungKind, rank, gen int, at event.Time) {
	rec := RungRecord{Attempt: attempt, Kind: kind, Rank: rank, Gen: gen, At: at}
	sup.rungs = append(sup.rungs, rec)
	sup.logf("attempt %d: ladder: %s", attempt, rec)
}

// restore reassembles the newest restorable checkpoint generation, in
// sim time (the control process pays RAID read latency and retry
// backoff on the attempt's clock). It seals and prunes generations
// first, then walks them newest-first: per-chunk CRC validation against
// the manifest, full decode validation, bounded retries, generation
// fallback. Returns the restored field and its iteration, a fresh field
// at iteration 0 when nothing was ever sealed (cold start), or
// ErrCheckpointUnrecoverable when generations exist but none restores.
func (sup *supervisor) restore(p *event.Proc, attempt int, past []attemptLayout) (*lattice.FermionField, int, error) {
	if len(past) == 0 {
		// First attempt: nothing can have been checkpointed yet.
		return lattice.NewFermionField(sup.global), 0, nil
	}
	sup.stats.Restores++
	man := sup.sealGenerations(attempt, past, p.Now())
	gens := man.Generations
	budget := backoffBudget
	for gi := len(gens) - 1; gi >= 0; gi-- {
		g := gens[gi]
		al := past[g.Attempt]
		cand, ok := sup.restoreGeneration(p, attempt, g, al, &budget)
		if ok {
			depth := len(gens) - 1 - gi
			sup.fallbackDepth.Record(uint64(depth))
			sup.logf("attempt %d: restored generation a%d/i%06d (fallback depth %d)",
				attempt, g.Attempt, g.Iter, depth)
			return cand, g.Iter, nil
		}
		sup.stats.GenerationFallbacks++
		sup.rung(attempt, RungGenerationFallback, -1, gi, p.Now())
	}
	if len(gens) > 0 {
		return nil, 0, fmt.Errorf("%w: %d generation(s) retained, every one failed validation",
			ErrCheckpointUnrecoverable, len(gens))
	}
	// No generation was ever sealed — the faults landed before the
	// first complete checkpoint. Cold restart is the bottom rung, legal
	// only here: it discards nothing, because nothing was saved.
	sup.stats.ColdStarts++
	sup.rung(attempt, RungColdStart, -1, 0, p.Now())
	return lattice.NewFermionField(sup.global), 0, nil
}

// restoreGeneration reads and validates every chunk of one generation,
// gathering into a candidate field. Any rank that stays invalid after
// its retries fails the whole generation.
func (sup *supervisor) restoreGeneration(p *event.Proc, attempt int, g checkpoint.Generation,
	al attemptLayout, budget *event.Time) (*lattice.FermionField, bool) {
	cand := lattice.NewFermionField(sup.global)
	for rank := 0; rank < len(g.CRCs); rank++ {
		local, ok := sup.readChunk(p, attempt, g, rank, al, budget)
		if !ok {
			return nil, false
		}
		gc := GridCoord(al.lay.Fold.ToLogical(al.shape.CoordOf(rank)))
		GatherFermion(cand, al.lay.Dec, gc, local)
	}
	return cand, true
}

// readChunk reads one rank's chunk with validation and bounded retry:
// the manifest CRC convicts silent corruption before the decode pays
// for a full parse, the decode's typed errors convict torn writes and
// header damage, and each failure retries under the doubling backoff
// until the per-restore budget or the retry bound runs out — the
// exchange() policy, applied to storage.
func (sup *supervisor) readChunk(p *event.Proc, attempt int, g checkpoint.Generation,
	rank int, al attemptLayout, budget *event.Time) (*lattice.FermionField, bool) {
	name := chunkName(g.Attempt, g.Iter, rank)
	backoff := chunkBackoff
	for try := 0; ; try++ {
		if blob, ok := sup.fs[name]; ok {
			p.Sleep(sup.readLatency(len(blob)))
			if checkpoint.BlobCRC(blob) == g.CRCs[rank] {
				local, it, err := checkpoint.ReadSolverState(bytes.NewReader(blob))
				if err == nil && int(it) == g.Iter && local.L == al.lay.Dec.Local {
					return local, true
				}
			}
		}
		if try >= chunkRetries || *budget < backoff {
			return nil, false
		}
		sup.stats.ChunkRetries++
		sup.rung(attempt, RungChunkRetry, rank, try+1, p.Now())
		sup.backoffWait.Record(uint64(backoff))
		p.Sleep(backoff)
		*budget -= backoff
		backoff *= 2
	}
}

// readLatency is the sim-time cost of one RAID chunk read.
func (sup *supervisor) readLatency(n int) event.Time {
	return raidReadLatency + event.Time(float64(n)*1e12/float64(raidReadBps))
}

// sealGenerations brings the manifest up to date and enforces the
// retention policy: read the stored manifest (rebuilding by scan when
// it fails validation), seal every newly complete checkpoint set of a
// past attempt with per-chunk CRCs, order generations oldest-first,
// prune all but the newest K (chunks included), and write the manifest
// back.
func (sup *supervisor) sealGenerations(attempt int, past []attemptLayout, now event.Time) *checkpoint.Manifest {
	man := &checkpoint.Manifest{}
	if blob, ok := sup.fs[manifestName]; ok {
		m, err := checkpoint.ReadManifest(bytes.NewReader(blob))
		if err != nil {
			sup.stats.ManifestRebuilds++
			sup.rung(attempt, RungManifestRebuild, -1, 0, now)
		} else {
			man = m
		}
	}
	known := map[[2]int]bool{}
	for _, g := range man.Generations {
		known[[2]int{g.Attempt, g.Iter}] = true
	}
	for a := 0; a < len(past); a++ {
		vol := past[a].shape.Volume()
		for _, iter := range iterationsOf(sup.fs, a) {
			if known[[2]int{a, iter}] || !presentSet(sup.fs, a, iter, vol) {
				continue
			}
			crcs := make([]uint32, vol)
			for rank := 0; rank < vol; rank++ {
				crcs[rank] = checkpoint.BlobCRC(sup.fs[chunkName(a, iter, rank)])
			}
			man.Generations = append(man.Generations, checkpoint.Generation{
				Attempt: a, Iter: iter, CRCs: crcs,
			})
		}
	}
	sort.Slice(man.Generations, func(i, j int) bool {
		gi, gj := man.Generations[i], man.Generations[j]
		if gi.Attempt != gj.Attempt {
			return gi.Attempt < gj.Attempt
		}
		return gi.Iter < gj.Iter
	})
	if pruned := len(man.Generations) - generations; pruned > 0 {
		for _, g := range man.Generations[:pruned] {
			for rank := range g.CRCs {
				delete(sup.fs, chunkName(g.Attempt, g.Iter, rank))
			}
		}
		man.Generations = append([]checkpoint.Generation(nil), man.Generations[pruned:]...)
	}
	var buf bytes.Buffer
	if err := checkpoint.WriteManifest(&buf, man); err != nil {
		panic(err) // bytes.Buffer writes cannot fail
	}
	sup.fs[manifestName] = buf.Bytes()
	return man
}

// presentSet reports whether every rank's chunk of one set is stored.
func presentSet(fs map[string][]byte, a, iter, vol int) bool {
	for rank := 0; rank < vol; rank++ {
		if _, ok := fs[chunkName(a, iter, rank)]; !ok {
			return false
		}
	}
	return true
}

// chaosHost adapts the daemon's storage and watchdog to the fault
// plan's host-plane surface (faultplan.Host): chunk corruption and torn
// writes strike the FS map, spurious death reports go to the watchdog's
// probe path. All methods run on the host engine at the fault's time.
type chaosHost struct {
	fs map[string][]byte
	wd *qdaemon.Watchdog
}

func (h *chaosHost) CorruptChunk(rank int, sel uint64) bool {
	name := newestChunk(h.fs, rank)
	if name == "" {
		return false
	}
	blob := h.fs[name]
	if len(blob) == 0 {
		return false
	}
	bit := sel % uint64(len(blob)*8)
	blob[bit/8] ^= 1 << (bit % 8)
	return true
}

func (h *chaosHost) TearChunk(rank int, sel uint64) bool {
	name := newestChunk(h.fs, rank)
	if name == "" {
		return false
	}
	blob := h.fs[name]
	if len(blob) < 2 {
		return false
	}
	keep := 1 + int(sel%uint64(len(blob)-1))
	h.fs[name] = blob[:keep]
	return true
}

func (h *chaosHost) SuspectNode(rank int) { h.wd.Suspect(rank) }

// newestChunk finds the newest stored chunk (highest attempt, then
// highest iteration) belonging to rank — the blob a storage fault is
// most likely to hurt, because it is the one the next restore wants.
// The max-reduction over the FS keys is iteration-order-invariant.
func newestChunk(fs map[string][]byte, rank int) string {
	bestA, bestI := -1, -1
	for name := range fs {
		a, iter, r, ok := parseChunk(name)
		if !ok || r != rank {
			continue
		}
		if a > bestA || (a == bestA && iter > bestI) {
			bestA, bestI = a, iter
		}
	}
	if bestA < 0 {
		return ""
	}
	return chunkName(bestA, bestI, rank)
}
