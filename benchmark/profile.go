package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// profileShares attributes a CPU profile to profileLayers through
// `go tool pprof -traces`, which ships with the toolchain.
func profileShares(ctx context.Context, profile string) (map[string]sample, error) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		goBin = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	cmd := exec.CommandContext(ctx, goBin, "tool", "pprof", "-traces", profile)
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	seconds, perr := attribute(out)
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.String())
	}
	if perr != nil {
		return nil, perr
	}
	var total float64
	for _, v := range seconds {
		total += v
	}
	// N counts profile samples at the runtime's default 100 Hz.
	n := int(total*100 + 0.5)
	shares := map[string]sample{}
	for _, l := range profileLayers {
		s := sample{N: n}
		if total > 0 {
			s.Value = seconds[l] / total
		}
		shares[l] = s
	}
	return shares, nil
}

// attribute reads `go tool pprof -traces` output and charges each
// trace's time to the innermost frame that belongs to a profile layer,
// or to "other" when none does. It returns seconds per layer.
func attribute(r io.Reader) (map[string]float64, error) {
	seconds := map[string]float64{}
	value := -1.0 // the current trace's seconds; negative once charged
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			if value >= 0 {
				seconds["other"] += value
			}
			value = -1
			continue
		}
		// A trace's first frame line carries its value in a 10-column
		// field ("     370ms   pkg.fn"); later frames leave it blank.
		// Label lines ("   key:  value") and the header do not parse as
		// a value and are skipped.
		if len(line) < 13 || line[10:13] != "   " {
			continue
		}
		frame := strings.TrimSuffix(line[13:], " (inline)")
		if v := strings.TrimSpace(line[:10]); v != "" {
			d, err := parsePprofDuration(v)
			if err != nil {
				return nil, fmt.Errorf("pprof -traces: %q: %w", line, err)
			}
			if value >= 0 {
				seconds["other"] += value
			}
			value = d.Seconds()
		}
		if value < 0 {
			continue
		}
		if l := layerOf(frame); l != "" {
			seconds[l] += value
			value = -1
		}
	}
	if value >= 0 {
		seconds["other"] += value
	}
	return seconds, sc.Err()
}

// parsePprofDuration parses pprof's scaled time values ("10ms", "1.20s",
// "2.50mins").
func parsePprofDuration(s string) (time.Duration, error) {
	for _, u := range []struct {
		suffix string
		unit   time.Duration
	}{{"mins", time.Minute}, {"hrs", time.Hour}, {"ns", time.Nanosecond},
		{"us", time.Microsecond}, {"µs", time.Microsecond}, {"ms", time.Millisecond}, {"s", time.Second}} {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			f, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, err
			}
			return time.Duration(f * float64(u.unit)), nil
		}
	}
	return 0, fmt.Errorf("unknown unit")
}

// layerOf maps a pprof function name to its profile layer, or "" when
// the frame belongs to none. Internal packages that are not layers
// (config, invariant, stats, ...) pass through to their caller.
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 { // generic shapes hold '/' and '.'
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	pkg := fn
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		if l := strings.TrimPrefix(pkg, "repro/internal/"); slices.Contains(profileLayers, l) {
			return l
		}
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/"):
		return "net_http"
	case pkg == "encoding/json":
		return "encoding_json"
	case pkg == "crypto/sha256" || pkg == "crypto/internal/fips140/sha256":
		return "crypto_sha256"
	case pkg == "syscall":
		return "syscall"
	}
	return ""
}
