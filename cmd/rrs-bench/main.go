// Command rrs-bench records the repository's performance trajectory. It
// runs a pinned set of representative simulations (baseline, RRS and
// BlockHammer at fixed seeds, scales and budgets) plus microbenchmarks of
// the per-access hot path (DRAM activate/content, tracker observe, RIT
// remap, full controller access), and emits a JSON report:
//
//	rrs-bench -out BENCH_PR2.json                 # full set
//	rrs-bench -quick                              # CI smoke subset
//	rrs-bench -baseline BENCH_PR1.json ...        # speedup vs a prior report
//	rrs-bench -quick -cpuprofile cpu.pprof -memprofile mem.pprof
//
// The profile flags capture the benchmark run itself (`make profile`
// wraps them): inspect with `go tool pprof cpu.pprof`.
//
// The report carries ns/op and allocs/op for the microbenchmarks and
// wall-clock throughput (simulated cycles per second, accesses per
// second) plus the paper-figure statistics (IPC, MPKI, hot rows, swaps)
// for each pinned simulation. Statistics are checked against the pins
// file (-pins): the engine is deterministic, so any drift — even in the
// last bit of a float — means behaviour changed, and rrs-bench exits
// non-zero. Regenerate pins with -write-pins only alongside an
// intentional behavioural change.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/cat"
	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/rit"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/tracker"
)

// benchSeed pins every randomized component of the benchmark set.
const benchSeed = 0xBE

// pinnedSims is the fixed simulation set. Order matters: -quick runs the
// first quickSims entries, so the subset's pins stay comparable across
// modes.
var pinnedSims = []simCase{
	{Name: "baseline-hmmer", Spec: service.Spec{
		Workloads: []string{"hmmer"}, Mitigation: service.MitNone,
		Scale: 16, Epochs: 1, Seed: benchSeed}},
	{Name: "rrs-hmmer", Spec: service.Spec{
		Workloads: []string{"hmmer"}, Mitigation: service.MitRRS,
		Scale: 16, Epochs: 1, Seed: benchSeed}},
	{Name: "rrs-mcf", Spec: service.Spec{
		Workloads: []string{"mcf"}, Mitigation: service.MitRRS,
		Scale: 16, Epochs: 1, Seed: benchSeed}},
	{Name: "blockhammer-hmmer", Spec: service.Spec{
		Workloads: []string{"hmmer"}, Mitigation: service.MitBlockHammer,
		Scale: 16, Epochs: 1, Seed: benchSeed}},
}

const quickSims = 2

type simCase struct {
	Name string       `json:"name"`
	Spec service.Spec `json:"spec"`
}

// simStats are the deterministic outputs of one pinned simulation — the
// fields the pins file freezes. Wall-clock throughput lives outside, in
// simReport, because it varies run to run.
type simStats struct {
	IPC             float64 `json:"ipc"`
	MPKI            float64 `json:"mpki"`
	Instructions    int64   `json:"instructions"`
	Cycles          int64   `json:"cycles"`
	Accesses        int64   `json:"accesses"`
	Epochs          int64   `json:"epochs"`
	HotRowsPerEpoch float64 `json:"hot_rows_per_epoch"`
	SwapsPerEpoch   float64 `json:"swaps_per_epoch"`
}

type simReport struct {
	Name            string       `json:"name"`
	Spec            service.Spec `json:"spec"`
	WallSeconds     float64      `json:"wall_seconds"`
	SimCyclesPerSec float64      `json:"sim_cycles_per_sec"`
	AccessesPerSec  float64      `json:"accesses_per_sec"`
	Stats           simStats     `json:"stats"`
}

type microReport struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

type report struct {
	Tool      string        `json:"tool"`
	GoVersion string        `json:"go_version"`
	Mode      string        `json:"mode"`
	Sims      []simReport   `json:"sims"`
	Micro     []microReport `json:"micro"`
	// Baseline summarizes the prior report -baseline pointed at;
	// SpeedupVsBaseline is the geometric mean of per-sim
	// sim_cycles_per_sec ratios against it.
	Baseline          map[string]float64 `json:"baseline_sim_cycles_per_sec,omitempty"`
	SpeedupVsBaseline float64            `json:"speedup_vs_baseline,omitempty"`
}

type pinsFile struct {
	Sims map[string]simStats `json:"sims"`
}

func main() {
	quick := flag.Bool("quick", false, "run the CI smoke subset (fewer sims)")
	reps := flag.Int("reps", 3, "repetitions per pinned sim; wall time is the fastest")
	out := flag.String("out", "", "write the JSON report here (default stdout)")
	pins := flag.String("pins", "", "pins file to check deterministic stats against")
	writePins := flag.Bool("write-pins", false, "rewrite the pins file from this run instead of checking")
	baseline := flag.String("baseline", "", "prior rrs-bench report to compute speedup against")
	minSpeedup := flag.Float64("min-speedup", 0, "fail if the geomean speedup vs -baseline is below this (e.g. 0.98 tolerates a 2% regression)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the benchmark run to this file")
	flag.Parse()

	var cpuFile *os.File
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cpuprofile: %v", err)
		}
		cpuFile = f
	}

	sims := pinnedSims
	mode := "full"
	if *quick {
		sims = pinnedSims[:quickSims]
		mode = "quick"
	}

	rep := report{Tool: "rrs-bench", GoVersion: runtime.Version(), Mode: mode}

	if *quick && *reps == 3 {
		*reps = 1
	}
	for _, c := range sims {
		fmt.Fprintf(os.Stderr, "sim %-20s", c.Name)
		r, err := runSimReps(c, *reps)
		if err != nil {
			fatalf("sim %s: %v", c.Name, err)
		}
		fmt.Fprintf(os.Stderr, " %6.2fs  %.3g sim-cycles/s  IPC %.4f\n",
			r.WallSeconds, r.SimCyclesPerSec, r.Stats.IPC)
		rep.Sims = append(rep.Sims, r)
	}

	for _, m := range microBenches() {
		fmt.Fprintf(os.Stderr, "micro %-22s", m.name)
		res := testing.Benchmark(m.fn)
		mr := microReport{
			Name:        m.name,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		}
		fmt.Fprintf(os.Stderr, " %10.1f ns/op %4d allocs/op\n", mr.NsPerOp, mr.AllocsPerOp)
		rep.Micro = append(rep.Micro, mr)
	}

	// Profiles are finalized here, covering exactly the sim and micro
	// loops — fatalf below (drift/baseline failures) must not lose them.
	if cpuFile != nil {
		pprof.StopCPUProfile()
		if err := cpuFile.Close(); err != nil {
			fatalf("cpuprofile: %v", err)
		}
		fmt.Fprintf(os.Stderr, "CPU profile written to %s\n", *cpuProfile)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatalf("memprofile: %v", err)
		}
		runtime.GC() // settle live-heap accounting before the snapshot
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatalf("memprofile: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("memprofile: %v", err)
		}
		fmt.Fprintf(os.Stderr, "heap profile written to %s\n", *memProfile)
	}

	if *baseline != "" {
		if err := applyBaseline(&rep, *baseline); err != nil {
			fatalf("baseline: %v", err)
		}
		if *minSpeedup > 0 && rep.SpeedupVsBaseline < *minSpeedup {
			fatalf("speedup %.3fx vs %s is below the -min-speedup floor %.3fx",
				rep.SpeedupVsBaseline, *baseline, *minSpeedup)
		}
	} else if *minSpeedup > 0 {
		fatalf("-min-speedup needs -baseline")
	}

	if *pins != "" {
		if *writePins {
			if err := savePins(*pins, rep); err != nil {
				fatalf("writing pins: %v", err)
			}
			fmt.Fprintf(os.Stderr, "pins written to %s\n", *pins)
		} else if err := checkPins(*pins, rep); err != nil {
			fatalf("drift check failed: %v", err)
		} else {
			fmt.Fprintln(os.Stderr, "drift check: all pinned statistics reproduced exactly")
		}
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatalf("encoding report: %v", err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatalf("writing %s: %v", *out, err)
	}
	fmt.Fprintf(os.Stderr, "report written to %s\n", *out)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rrs-bench: "+format+"\n", args...)
	os.Exit(1)
}

// runSimReps runs c reps times, keeping the fastest wall time (throughput
// is a max-performance measurement) and insisting the deterministic
// statistics agree across repetitions — a free determinism check on every
// bench run.
func runSimReps(c simCase, reps int) (simReport, error) {
	if reps < 1 {
		reps = 1
	}
	best, err := runSim(c)
	if err != nil {
		return simReport{}, err
	}
	for i := 1; i < reps; i++ {
		r, err := runSim(c)
		if err != nil {
			return simReport{}, err
		}
		if r.Stats != best.Stats {
			return simReport{}, fmt.Errorf(
				"nondeterministic engine: rep %d stats %+v differ from rep 0 %+v",
				i, r.Stats, best.Stats)
		}
		if r.WallSeconds < best.WallSeconds {
			best = r
		}
	}
	return best, nil
}

func runSim(c simCase) (simReport, error) {
	opts, err := c.Spec.Options()
	if err != nil {
		return simReport{}, err
	}
	start := time.Now()
	res, err := sim.Run(opts)
	if err != nil {
		return simReport{}, err
	}
	wall := time.Since(start).Seconds()
	return simReport{
		Name:            c.Name,
		Spec:            c.Spec.Normalize(),
		WallSeconds:     wall,
		SimCyclesPerSec: float64(res.Cycles) / wall,
		AccessesPerSec:  float64(res.Accesses) / wall,
		Stats: simStats{
			IPC:             res.IPC,
			MPKI:            res.MPKI,
			Instructions:    res.Instructions,
			Cycles:          res.Cycles,
			Accesses:        res.Accesses,
			Epochs:          res.Epochs,
			HotRowsPerEpoch: res.HotRowsPerEpoch,
			SwapsPerEpoch:   res.SwapsPerEpoch,
		},
	}, nil
}

func applyBaseline(rep *report, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	baseRate := map[string]float64{}
	for _, s := range base.Sims {
		baseRate[s.Name] = s.SimCyclesPerSec
	}
	rep.Baseline = map[string]float64{}
	logSum, n := 0.0, 0
	for _, s := range rep.Sims {
		b, ok := baseRate[s.Name]
		if !ok || b <= 0 {
			continue
		}
		rep.Baseline[s.Name] = b
		logSum += math.Log(s.SimCyclesPerSec / b)
		n++
	}
	if n == 0 {
		return fmt.Errorf("%s shares no sims with this run", path)
	}
	rep.SpeedupVsBaseline = math.Exp(logSum / float64(n))
	fmt.Fprintf(os.Stderr, "speedup vs %s: %.3fx (geomean over %d sims)\n",
		path, rep.SpeedupVsBaseline, n)
	return nil
}

func savePins(path string, rep report) error {
	pf := pinsFile{Sims: map[string]simStats{}}
	// Preserve pins for sims outside this run (quick mode must not drop
	// the full set's entries).
	if data, err := os.ReadFile(path); err == nil {
		json.Unmarshal(data, &pf)
		if pf.Sims == nil {
			pf.Sims = map[string]simStats{}
		}
	}
	for _, s := range rep.Sims {
		pf.Sims[s.Name] = s.Stats
	}
	enc, err := json.MarshalIndent(pf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(enc, '\n'), 0o644)
}

func checkPins(path string, rep report) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading pins (generate with -write-pins): %w", err)
	}
	var pf pinsFile
	if err := json.Unmarshal(data, &pf); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	for _, s := range rep.Sims {
		want, ok := pf.Sims[s.Name]
		if !ok {
			return fmt.Errorf("sim %s has no pin in %s", s.Name, path)
		}
		if s.Stats != want {
			return fmt.Errorf("sim %s drifted from pinned statistics:\n  got  %+v\n  want %+v",
				s.Name, s.Stats, want)
		}
	}
	return nil
}

// --- microbenchmarks of the per-access hot path ---

type micro struct {
	name string
	fn   func(b *testing.B)
}

func microBenches() []micro {
	return []micro{
		{"dram-activate", benchDRAMActivate},
		{"dram-row-content", benchDRAMRowContent},
		{"tracker-cam-observe", benchCAMObserve},
		{"tracker-cat-observe", benchCATObserve},
		{"rit-remap", benchRITRemap},
		{"memctrl-access-rrs", benchMemctrlAccess},
	}
}

// benchRows keeps the benchmark working set larger than tracker capacity
// so eviction paths are exercised, but small against a bank.
const benchRows = 4096

// splitmix is the trace generator's PRNG, reused so benchmark address
// streams are pinned without pulling rand into the hot loop.
func splitmixNext(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func benchDRAMActivate(b *testing.B) {
	sys := dram.MustNew(config.Default())
	id := dram.BankID{}
	s := uint64(benchSeed)
	b.ReportAllocs()
	b.ResetTimer()
	now := int64(0)
	for i := 0; i < b.N; i++ {
		row := int(splitmixNext(&s) % benchRows)
		sys.Activate(id, row, now)
		now += 22
	}
}

func benchDRAMRowContent(b *testing.B) {
	sys := dram.MustNew(config.Default())
	id := dram.BankID{}
	s := uint64(benchSeed)
	for i := 0; i < benchRows/2; i++ {
		sys.SetRowContent(id, i, uint64(i)|1<<63)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		row := int(splitmixNext(&s) % benchRows)
		sink ^= sys.RowContent(id, row)
	}
	_ = sink
}

func benchCAMObserve(b *testing.B) {
	cam, err := tracker.NewCAM(128, 1<<62)
	if err != nil {
		b.Fatal(err)
	}
	s := uint64(benchSeed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cam.Observe(splitmixNext(&s) % benchRows)
	}
}

func benchCATObserve(b *testing.B) {
	// The paper's tracker geometry: 2 tables x 64 sets x (14+6) ways.
	ct, err := tracker.NewCAT(cat.Spec{Sets: 64, Ways: 20}, 2*64*14, 1<<62, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	s := uint64(benchSeed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ct.Observe(splitmixNext(&s) % benchRows)
	}
}

func benchRITRemap(b *testing.B) {
	// The paper's RIT geometry: 2 tables x 256 sets x 20 ways, 3.4K
	// tuples; half-full so Remap sees both hits and misses.
	r, err := rit.New(cat.Spec{Sets: 256, Ways: 20}, 3400, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	s := uint64(benchSeed)
	for installed := 0; installed < 1700; {
		x := splitmixNext(&s) % benchRows
		y := benchRows + splitmixNext(&s)%benchRows
		if r.Contains(x) || r.Contains(y) {
			continue
		}
		if _, ok, err := r.Install(x, y); err != nil {
			b.Fatal(err)
		} else if ok {
			installed++
		}
	}
	s = benchSeed
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Remap(splitmixNext(&s) % (2 * benchRows))
	}
	_ = sink
}

func benchMemctrlAccess(b *testing.B) {
	cfg := config.Default().Scaled(32)
	sys := dram.MustNew(cfg)
	factory, err := service.MitigationFactory(service.MitRRS, 32, 0)
	if err != nil {
		b.Fatal(err)
	}
	var mit memctrl.Mitigation = memctrl.None{}
	if m := factory(sys); m != nil {
		mit = m
	}
	ctl := memctrl.New(sys, mit)
	s := uint64(benchSeed)
	lines := uint64(cfg.MemoryBytes()) / uint64(cfg.LineBytes)
	b.ReportAllocs()
	b.ResetTimer()
	now := int64(0)
	for i := 0; i < b.N; i++ {
		line := splitmixNext(&s) % lines
		done := ctl.Access(line, i%16 == 0, now)
		if done > now {
			now = done
		}
	}
}
