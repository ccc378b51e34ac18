package experiments

import (
	"context"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/sim"
)

// servedScale is tinyScale with its grids posted to an httptest server
// in front of a fresh manager, through the same client call
// rrs-experiments -server uses.
func servedScale(t *testing.T, sweeps *atomic.Int64) Scale {
	t.Helper()
	srv := httptest.NewServer(service.Handler(testManager(t, service.Options{Workers: 2})))
	t.Cleanup(srv.Close)
	c := service.NewClient(srv.URL)
	c.PollInterval = 5 * time.Millisecond
	s := tinyScale()
	s.Sweeper = func(ss service.SweepSpec) (map[string]sim.Result, error) {
		sweeps.Add(1)
		return c.RunSweep(context.Background(), ss)
	}
	return s
}

// TestFigure5SweepPathMatchesLocal checks that a figure is the same
// whether its grid runs on an in-process manager or is posted to a
// server: same rows, same rendered table, one sweep.
func TestFigure5SweepPathMatchesLocal(t *testing.T) {
	localRows, localTable, err := Figure5(tinyScale())
	if err != nil {
		t.Fatal(err)
	}

	var sweeps atomic.Int64
	servedRows, servedTable, err := Figure5(servedScale(t, &sweeps))
	if err != nil {
		t.Fatal(err)
	}
	if got := sweeps.Load(); got != 1 {
		t.Errorf("figure submitted %d sweeps, want 1", got)
	}
	if !reflect.DeepEqual(localRows, servedRows) {
		t.Errorf("rows diverge:\nlocal  %+v\nserved %+v", localRows, servedRows)
	}
	if localTable.String() != servedTable.String() {
		t.Errorf("tables diverge:\nlocal:\n%s\nserved:\n%s", localTable, servedTable)
	}
}

// TestShootoutSweepPathMatchesLocal is the same check for the
// shootout's perf leg: baseline plus the mitigation subset go up as one
// sweep either way.
func TestShootoutSweepPathMatchesLocal(t *testing.T) {
	mits := []string{service.MitRRS, service.MitSRS}
	localRows, localTable, err := Shootout(tinyScale(), mits, false)
	if err != nil {
		t.Fatal(err)
	}

	var sweeps atomic.Int64
	servedRows, servedTable, err := Shootout(servedScale(t, &sweeps), mits, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := sweeps.Load(); got != 1 {
		t.Errorf("shootout submitted %d sweeps, want 1", got)
	}
	if !reflect.DeepEqual(localRows, servedRows) {
		t.Errorf("rows diverge:\nlocal  %+v\nserved %+v", localRows, servedRows)
	}
	if localTable.String() != servedTable.String() {
		t.Errorf("tables diverge:\nlocal:\n%s\nserved:\n%s", localTable, servedTable)
	}
}
