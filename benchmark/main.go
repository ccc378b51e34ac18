// Command benchmark is the repository's benchmark: five workloads, from
// the simulator's per-access hot loop to a three-node serving fleet,
// each measured end to end with tracing off and, with -trace 1, layer by
// layer from a CPU profile and call counts taken at public API
// boundaries. It checks every output it measures (pinned statistics,
// bit-identical cache hits, complete sweeps) and exits non-zero on any
// mismatch.
//
//	bash benchmark/run.sh                       # every workload, untraced
//	bash benchmark/run.sh -trace 1 -out r.json  # every workload, traced
//	bash benchmark/run.sh --workload sweep-shootout --seed 7 --seconds 15 --trace 0
//
// Each workload runs in its own child process, a re-exec of this
// binary, so peak RSS and GC state stay per workload. The last line of
// standard output is one JSON object: correct, attempted, failed and the
// metrics (end-to-end ones untraced, per-layer ones traced); a table with
// sample counts goes to standard error.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed the sim pins are taken at (cmd/rrs-bench's).
const defaultSeed = 0xBE

// childTimeout bounds one workload's child process.
const childTimeout = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:]))
}

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	out       string
	workdir   string
	writePins string
	// child and profile are internal: the parent re-execs itself with
	// -child to run one workload, and asks a traced child to write its
	// CPU profile to -cpuprofile.
	child   bool
	profile string
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all, in order)")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "input seed; sim statistics are pinned at the default")
	fs.Float64Var(&o.seconds, "seconds", 15, "measured seconds per workload (per phase in a traced run)")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run: report per-layer metrics instead of end-to-end ones")
	fs.StringVar(&o.out, "out", "", "also write the full JSON report (host facts, sample counts) here")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for scratch files (journals, profiles)")
	fs.StringVar(&o.writePins, "write-pins", "", "write the sim workloads' statistics to this pins file instead of checking them (default seed only)")
	fs.BoolVar(&o.child, "child", false, "internal: run -workload in this process")
	fs.StringVar(&o.profile, "cpuprofile", "", "internal: CPU profile path for a traced child")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if o.child && o.workload == "" {
		return o, fmt.Errorf("-child needs -workload")
	}
	if o.workload != "" {
		if _, ok := workloadByName(o.workload); !ok {
			return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
		}
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("-seconds must be positive")
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1")
	}
	if o.writePins != "" && (o.seed != defaultSeed || o.trace != 0) {
		return o, fmt.Errorf("-write-pins needs the default seed and an untraced run")
	}
	return o, nil
}

func run(args []string) int {
	o, err := parseFlags(args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	if o.child {
		return runChild(o)
	}
	return runParent(o)
}

// runChild measures one workload in this process and writes its result
// to standard output for the parent.
func runChild(o options) int {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	w, _ := workloadByName(o.workload)
	p := params{
		seed:    o.seed,
		budget:  time.Duration(o.seconds * float64(time.Second)),
		workdir: o.workdir,
		size:    fullSize,
		trace:   o.trace == 1,
		profile: o.profile,
	}
	res, err := measureWorkload(ctx, w, p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	return 0
}

// report is the -out file: the run's settings, the host, and every
// workload's full result.
type report struct {
	Seed      uint64    `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Traced    bool      `json:"traced"`
	Host      hostFacts `json:"host"`
	Workloads []*result `json:"workloads"`
}

type hostFacts struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func host() hostFacts {
	h := hostFacts{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func runParent(o options) int {
	names := workloadNames()
	if o.workload != "" {
		names = []string{o.workload}
	}
	rep := report{Seed: o.seed, Seconds: o.seconds, Traced: o.trace == 1, Host: host()}
	for _, name := range names {
		res, err := runWorkloadChild(o, name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		if o.seed == defaultSeed && o.writePins == "" {
			if err := checkPins(res); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				return 1
			}
		}
		rep.Workloads = append(rep.Workloads, res)
		printTable(res, rep.Traced)
	}
	if o.writePins != "" {
		if err := writePins(o.writePins, rep.Workloads); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: writing pins: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "pins written to %s\n", o.writePins)
	}
	if o.out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(o.out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: writing %s: %v\n", o.out, err)
			return 1
		}
	}
	line, ok := summary(rep.Workloads, rep.Traced, o.workload == "")
	fmt.Println(line)
	if !ok {
		return 1
	}
	return 0
}

// runWorkloadChild re-execs this binary to measure one workload, adds
// the child's peak RSS, and in a traced run attributes its CPU profile.
func runWorkloadChild(o options, name string) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", name, "-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(o.trace), "-workdir", o.workdir}
	var profile string
	if o.trace == 1 {
		profile = filepath.Join(o.workdir, fmt.Sprintf("%s-%d.cpu.pprof", name, os.Getpid()))
		args = append(args, "-cpuprofile", profile)
		defer os.Remove(profile)
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child: %w", err)
	}
	var res result
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("decoding child result: %w", err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok { // Maxrss is in KiB on Linux
		res.Metrics["peak_rss_mb"] = sample{Value: float64(ru.Maxrss) / 1024, N: 1}
	}
	if profile != "" {
		shares, err := profileShares(ctx, profile)
		if err != nil {
			return nil, err
		}
		for layer, s := range shares {
			res.Metrics["profile."+layer+".share"] = s
		}
	}
	return &res, nil
}

// summary renders the final stdout line. For one workload the metric
// names are the registry's; for all workloads each is prefixed with its
// workload's name.
func summary(results []*result, traced, prefixed bool) (string, bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, r := range results {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		if len(r.Errors) > 0 || r.Failed > 0 {
			out.Correct = false
		}
		for _, d := range defs {
			name := d.name
			if prefixed {
				name = r.Workload + "." + name
			}
			out.Metrics[name] = value{r.Metrics[d.name].Value, d.unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return fmt.Sprintf(`{"correct":false,"attempted":%d,"failed":%d,"metrics":{}}`, out.Attempted, out.Failed), false
	}
	return string(b), out.Correct
}

// printTable writes one workload's metrics, units and sample counts to
// standard error, followed by any correctness failures.
func printTable(r *result, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	w, _ := workloadByName(r.Workload)
	fmt.Fprintf(os.Stderr, "\n== %s  (attempted %d, failed %d)\n", r.Workload, r.Attempted, r.Failed)
	for _, d := range defs {
		if d.groups&w.group == 0 {
			continue
		}
		s := r.Metrics[d.name]
		fmt.Fprintf(os.Stderr, "  %-40s %14.6g %-12s n=%d\n", d.name, s.Value, d.unit, s.N)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(os.Stderr, "  FAIL: %s\n", e)
	}
}

// writePins merges the sim workloads' first-pass statistics into path.
func writePins(path string, results []*result) error {
	pins := map[string]simStats{}
	if b, err := os.ReadFile(path); err == nil {
		var old pinsFile
		if err := json.Unmarshal(b, &old); err != nil {
			return err
		}
		if old.Sims != nil {
			pins = old.Sims
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	n := 0
	for _, r := range results {
		for k, s := range r.Stats {
			pins[k] = s
			n++
		}
	}
	if n == 0 {
		return fmt.Errorf("no sim workload ran")
	}
	b, err := json.MarshalIndent(pinsFile{Seed: defaultSeed, Sims: pins}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
