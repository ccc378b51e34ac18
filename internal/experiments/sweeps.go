package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The execution path. Every experiment built from job specs describes
// its grid as one service.SweepSpec — a base job plus axes — and runs it
// through Scale.Sweeper. It then reads each point by the content hash of
// the spec it builds: a sweep child and the same point built directly
// normalize and hash identically, so a local run and a served one
// produce the same tables.

// grid is one executed sweep: its children's results keyed by spec
// content hash.
type grid map[string]sim.Result

// sweep runs axes over base and checks that every child came back. A
// child without a result — its run failed, or the service lost it — is
// named by workload and mitigation, and every such child is reported,
// joined with the sweep's own error.
func (s Scale) sweep(base service.Spec, axes service.SweepAxes) (grid, error) {
	ss := service.SweepSpec{Base: base, Axes: axes}
	children, err := ss.Expand()
	if err != nil {
		return nil, err
	}
	run := s.Sweeper
	if run == nil {
		run = localSweep
	}
	got, err := run(ss)
	if got == nil && err != nil {
		// Nothing came back (a transport error, say): naming every
		// child would only repeat the one cause.
		return nil, err
	}
	var errs []error
	for _, c := range children {
		if _, ok := got[c.Hash()]; !ok {
			errs = append(errs, fmt.Errorf("%s: no result", pointName(c)))
		}
	}
	if err := errors.Join(append(errs, err)...); err != nil {
		return nil, err
	}
	return got, nil
}

// localSweep is the nil Sweeper: the grid runs on a fresh in-process
// Manager, one worker per scheduler slot.
func localSweep(ss service.SweepSpec) (map[string]sim.Result, error) {
	m := service.NewManager(service.Options{})
	defer m.Shutdown(context.Background())
	return m.RunSweep(context.Background(), ss)
}

// at returns one point of the grid.
func (g grid) at(spec service.Spec) (sim.Result, error) {
	res, ok := g[spec.Hash()]
	if !ok {
		return sim.Result{}, fmt.Errorf("experiments: %s is not in the sweep", pointName(spec))
	}
	return res, nil
}

// normalized is spec's IPC over the unprotected baseline of the same
// point (the paper's normalized-performance metric), with both runs.
func (g grid) normalized(spec service.Spec) (float64, sim.Result, sim.Result, error) {
	base := spec
	base.Mitigation = service.MitNone
	baseRes, err := g.at(base)
	if err != nil {
		return 0, sim.Result{}, sim.Result{}, err
	}
	mitRes, err := g.at(spec)
	if err != nil {
		return 0, sim.Result{}, sim.Result{}, err
	}
	if baseRes.IPC == 0 {
		return 0, baseRes, mitRes, fmt.Errorf("experiments: %s: baseline IPC is zero", pointName(spec))
	}
	return mitRes.IPC / baseRes.IPC, baseRes, mitRes, nil
}

// pointName labels a point for error messages.
func pointName(spec service.Spec) string {
	return fmt.Sprintf("workload %s, mitigation %s", strings.Join(spec.Workloads, "+"), spec.Mitigation)
}

// workloadNames projects a workload list onto spec workload names.
func workloadNames(ws []trace.Workload) []string {
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name
	}
	return names
}
