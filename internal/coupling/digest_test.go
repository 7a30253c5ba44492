package coupling

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/navierstokes"
	"repro/internal/tasking"
	"repro/internal/telemetry"
)

// runDigest hashes everything a run makes observable, to the bit: fate
// counts, makespan, every rank's (phase, start, end) timeline and the
// telemetry step markers.
func runDigest(t *testing.T, cfg RunConfig) string {
	t.Helper()
	st, meta, res := recordedRun(t, cfg)
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, n := range []int{res.Injected, res.Deposited, res.Exited, res.ActiveEnd} {
		put(uint64(n))
	}
	put(math.Float64bits(res.Makespan))
	for _, rt := range res.Trace.Ranks {
		ev := rt.Events()
		put(uint64(len(ev)))
		for _, e := range ev {
			put(uint64(e.Phase))
			put(math.Float64bits(e.Start))
			put(math.Float64bits(e.End))
		}
	}
	rows, err := st.Query(meta.Run, telemetry.Query{Rank: telemetry.WorldRank, HasRank: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Kind == telemetry.KindStep {
			put(uint64(r.Step))
			put(math.Float64bits(r.Start))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRunDigests pins coupling.Run to the bit across commits, in both
// modes, over several rank splits and both injection schedules. The
// golden test only holds a 1e-3 relative band; any edit to the step
// loop that is meant to be behaviour-preserving must leave every digest
// here untouched. The serial assembly strategy keeps the flow field
// itself independent of the worker count, so one constant serves
// WorkersPerRank 1 and 2. A change that moves the numerics on purpose
// re-records them from the failure output, once, and says so.
func TestRunDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are recorded on amd64; other targets may contract a*b+c into FMA")
	}
	splits := []struct {
		mode Mode
		f, p int
	}{
		{Synchronous, 1, 0}, {Synchronous, 2, 0}, {Synchronous, 3, 0},
		{Coupled, 1, 1}, {Coupled, 2, 2}, {Coupled, 3, 1},
	}
	want := map[string]string{
		"synchronous-1+0-bolus":     "5ef1c7606a73487fdbf6746d9a9d589e2d6b69cb941c795fff808256434b1075",
		"synchronous-1+0-breathing": "f19755f24137f0f418ffc3e27fe588d73252272f7941eae8335932a9da9d6653",
		"synchronous-2+0-bolus":     "935b8f4eb0a64339870b2bef9c088ae7aba4316d8a376d70f5f249ca29937082",
		"synchronous-2+0-breathing": "793deeb0f8a5a3fb4e4db6b97a1cafb2e2318fc206991f2701ef4614d5446ed2",
		"synchronous-3+0-bolus":     "5fbe7209f5c9b265e79843a98974c1de390dde695c1ceae41fd0b9fc099bd9b4",
		"synchronous-3+0-breathing": "6a9c59cfe79a077d4e2d3cf9ee242966a6b88cf2bf0db3ecfa8ad61cb79b6a62",
		"coupled-1+1-bolus":         "4b8d504c58f22951bed983009bfc59691939467222c843d2ffce8cad0c76b6bd",
		"coupled-1+1-breathing":     "5862815efbbdc6b882a146f94fbb05aa988657457d0fd9a52e3b9b878019f92d",
		"coupled-2+2-bolus":         "aca8dcb24146749626a2cc4367232d2730433d3fd259bc349a82ee3ff792e373",
		"coupled-2+2-breathing":     "99d72f8dc60d00b763cc47ab47e8c78b87a916dc55f0b709e6c5ea7c044edf10",
		"coupled-3+1-bolus":         "66b21f25db7c3a87fb70d608fcd9642ffd47159b3c99e092af3c148d245bfe17",
		"coupled-3+1-breathing":     "0c83cfb80036ca19392fa60e7454dce4c2560a1a57619406d393797e6b684308",
	}
	const steps = 4
	for _, sp := range splits {
		for _, dosing := range []string{"bolus", "breathing"} {
			name := fmt.Sprintf("%s-%d+%d-%s", sp.mode, sp.f, sp.p, dosing)
			for _, workers := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/workers%d", name, workers), func(t *testing.T) {
					cfg := fastCfg()
					cfg.Mode, cfg.FluidRanks, cfg.ParticleRanks = sp.mode, sp.f, sp.p
					cfg.Steps = steps
					cfg.WorkersPerRank = workers
					if dosing == "breathing" {
						cfg.InjectEvery = 2
						cfg.NS.Inflow = navierstokes.BreathingWaveform{Period: 2 * steps * cfg.NS.Props.Dt}
					}
					if got := runDigest(t, cfg); got != want[name] {
						t.Errorf("digest %q: %q,", name, got)
					}
				})
			}
		}
	}
}

// TestColoringDigestAcrossWorkers: coloring assembly gives each node at
// most one contribution per color and runs the colors in order, so a run
// is bit-identical at one worker and at two. A self-consistency check:
// it compares the two runs with each other, not with a recorded digest.
// Atomic and multidep assembly make no such promise (see fingerprint).
func TestColoringDigestAcrossWorkers(t *testing.T) {
	digest := func(workers int) string {
		cfg := fastCfg()
		cfg.FluidRanks = 2
		cfg.Steps = 4
		cfg.NS.Strategy = tasking.StrategyColoring
		cfg.NS.SGSStrategy = tasking.StrategyColoring
		cfg.WorkersPerRank = workers
		return runDigest(t, cfg)
	}
	if one, two := digest(1), digest(2); one != two {
		t.Errorf("coloring, sync 2+0: digest %s at one worker, %s at two", one, two)
	}
}
