package service

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
)

// FuzzReplayJournal feeds arbitrary bytes to journal replay, the path a
// damaged or hand-edited log reaches at startup. Replay must never
// panic; compaction must be a fixed point (replaying the compacted file
// yields the same jobs, sweeps and counts, minus the dropped lines it
// cleaned out); and once the replay is restored into a manager, every
// job that came back done resolves through the result store.
func FuzzReplayJournal(f *testing.F) {
	spec := uniqueSpec(1)
	ss := sweepOf(1, 2)
	lines := func(recs ...journalRecord) []byte {
		var buf bytes.Buffer
		for _, rec := range recs {
			line, err := json.Marshal(rec)
			if err != nil {
				f.Fatal(err)
			}
			buf.Write(append(line, '\n'))
		}
		return buf.Bytes()
	}
	accepted := journalRecord{Type: recAccepted, ID: "job-000001", Seq: 1,
		Hash: spec.Hash(), Spec: &spec, Submitted: "2025-06-03T17:00:00Z"}
	done := journalRecord{Type: recTerminal, ID: "job-000001", Hash: spec.Hash(),
		State: StateDone, Attempts: 1, Result: &sim.Result{IPC: 1.5, Accesses: 10},
		Finished: "2025-06-03T17:00:01.5+02:00"}
	for _, seed := range [][]byte{
		nil,
		lines(accepted),
		lines(accepted, done),
		lines(accepted, journalRecord{Type: recTerminal, ID: "job-000001", State: StateDone}),
		lines(accepted, journalRecord{Type: recTerminal, ID: "job-000001", State: StateRunning}),
		lines(accepted, done, journalRecord{Type: recRemoved, ID: "job-000001"}),
		lines(journalRecord{Type: recSweepAccepted, ID: "sweep-000001", Seq: 1,
			Hash: ss.Hash(), SweepSpec: &ss}),
		append(lines(accepted, done), `{"type":"accepted","id":"job-9`...),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), "jobs.journal")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := replayJournal(path)
		if err != nil {
			return // unreadable (a line past the scanner cap): refused, not replayed
		}
		if err := compactJournal(path, rep); err != nil {
			t.Fatalf("compact: %v", err)
		}
		again, err := replayJournal(path)
		if err != nil {
			t.Fatalf("replaying the compacted journal: %v", err)
		}
		if a, b := replayShape(t, rep), replayShape(t, again); a != b {
			t.Fatalf("compaction changed the replay:\nfirst  %s\nsecond %s", a, b)
		}

		m := stubManager(t, Options{Workers: 1}, instantRun)
		_ = m.Restore(rep) // colliding or unresolvable records are errors, not panics
		for _, j := range m.List() {
			if j.Snapshot().State != StateDone {
				continue
			}
			if _, ok := m.CachedResult(j.Hash()); !ok {
				t.Fatalf("job %s is done but its hash %q has no stored result", j.ID(), j.Hash())
			}
		}
	})
}

// replayShape renders a replay for comparison, ignoring Dropped: the
// lines compaction removes are exactly the ones it counted.
func replayShape(t *testing.T, rep *Replayed) string {
	t.Helper()
	r := *rep
	r.Dropped = 0
	out, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("encoding replay: %v", err)
	}
	return string(out)
}
