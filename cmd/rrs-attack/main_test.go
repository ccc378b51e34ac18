package main

import (
	"strings"
	"testing"

	"repro/internal/service"
)

// TestRunEveryDefense attacks each defense the service table names with
// one epoch of double-sided hammering: every name must build and report
// a result.
func TestRunEveryDefense(t *testing.T) {
	for _, name := range service.MitigationNames() {
		t.Run(name, func(t *testing.T) {
			var out strings.Builder
			if err := run(&out, "doublesided", name, 1, 100, 7); err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{"defense:  " + name + "\n", "RESULT: "} {
				if !strings.Contains(out.String(), want) {
					t.Errorf("output lacks %q:\n%s", want, out.String())
				}
			}
		})
	}
}

// TestRunRejectsUnknownDefense pins the error path of -defense.
func TestRunRejectsUnknownDefense(t *testing.T) {
	var out strings.Builder
	if err := run(&out, "doublesided", "graphene2", 1, 100, 7); err == nil {
		t.Fatal("unknown defense accepted")
	}
	if out.Len() != 0 {
		t.Errorf("rejected defense printed output:\n%s", out.String())
	}
}
