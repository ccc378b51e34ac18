package service

import (
	"strings"
	"testing"
)

func TestSpecHashCanonical(t *testing.T) {
	// Spelling out the defaults must not change the job's identity.
	implicit := Spec{Workloads: []string{"bzip2"}}
	explicit := Spec{
		Workloads:           []string{"bzip2"},
		Mitigation:          MitNone,
		Scale:               1,
		InstructionsPerCore: 1_000_000,
	}
	if implicit.Hash() != explicit.Hash() {
		t.Errorf("defaulted and explicit specs hash differently:\n%s\n%s",
			implicit.Hash(), explicit.Hash())
	}

	// The timeout cannot change the result, so it must not change the
	// address either.
	timed := implicit
	timed.TimeoutSeconds = 30
	if timed.Hash() != implicit.Hash() {
		t.Error("TimeoutSeconds changed the content hash")
	}

	// Every result-bearing knob must change the address.
	base := Spec{Workloads: []string{"bzip2"}, Mitigation: MitRRS, Scale: 16, Epochs: 2}
	variants := map[string]Spec{}
	v := base
	v.Seed = 7
	variants["seed"] = v
	v = base
	v.Mitigation = MitPARA
	variants["mitigation"] = v
	v = base
	v.Scale = 32
	variants["scale"] = v
	v = base
	v.Epochs = 3
	variants["epochs"] = v
	v = base
	v.Workloads = []string{"hmmer"}
	variants["workload"] = v
	v = base
	v.RowHammerThreshold = 77
	variants["trh"] = v
	v = base
	v.Cores = 2
	variants["cores"] = v
	v = base
	v.Paranoid = true
	variants["paranoid"] = v
	v = base
	v.MaxSteps = 100000
	variants["max-steps"] = v
	seen := map[string]string{base.Hash(): "base"}
	for name, spec := range variants {
		h := spec.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("variant %q collides with %q", name, prev)
		}
		seen[h] = name
	}
}

// TestSpecHashPinned pins the content addresses of fixed specs. The
// result cache, the journal and the fleet ring all key on these hashes,
// so a change to Spec's fields or their encoding that moves any of them
// orphans every stored result; such a change must be deliberate.
func TestSpecHashPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		got  string
		want string
	}{
		{"bare bzip2",
			Spec{Workloads: []string{"bzip2"}}.Hash(),
			"a3b99894de4cef6bb2a4af97031832c7c511bff06a3a736b83873fffba8a0d85"},
		{"mcf/rrs scale 16, 1 epoch, seed 0xBE",
			Spec{Workloads: []string{"mcf"}, Mitigation: MitRRS, Scale: 16, Epochs: 1, Seed: 0xBE}.Hash(),
			"a2c58d907cb90f4199d413a08eb3528fc40a7c6c54297d98b7dc58df5e0b4a21"},
		{"paranoid with max_steps",
			Spec{Workloads: []string{"hmmer"}, Mitigation: MitRRS, Scale: 16, Epochs: 2, Seed: 1,
				Paranoid: true, MaxSteps: 100000}.Hash(),
			"fb90da23936c6307d8be60ff3bcef1b6b7516f66b6f7af029a528f89014ba59b"},
		{"sweep: mitigations x blacklists",
			SweepSpec{
				Base: Spec{Workloads: []string{"bzip2"}, Scale: 16, Epochs: 1, Seed: 1},
				Axes: SweepAxes{Mitigations: []string{MitNone, MitRRS, MitBlockHammer},
					Blacklists: []uint32{512, 1024}},
			}.Hash(),
			"79c6c26241ec4e1d3cd88807b39b2fc691802713dd16cfa098403dc7eedd9209"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: hash %s, want %s", tc.name, tc.got, tc.want)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name    string
		spec    Spec
		wantErr string
	}{
		{"ok", Spec{Workloads: []string{"bzip2"}, Mitigation: MitRRS}, ""},
		{"ok blockhammer", Spec{Workloads: []string{"hmmer"}, Mitigation: MitBlockHammer, Blacklist: 1024}, ""},
		{"no workloads", Spec{}, "at least one workload"},
		{"unknown workload", Spec{Workloads: []string{"doom"}}, `unknown workload "doom"`},
		{"unknown mitigation", Spec{Workloads: []string{"bzip2"}, Mitigation: "tape"}, "unknown mitigation"},
		{"bad cores", Spec{Workloads: []string{"bzip2"}, Cores: -3}, "Cores"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestSpecOptionsMirrorsCLIDefaults(t *testing.T) {
	// The spec the README curl walkthrough posts must compile to the
	// same run rrs-sim's default flags build.
	spec := Spec{Workloads: []string{"bzip2"}, Mitigation: MitRRS, Scale: 16, Epochs: 2, Seed: 1}
	opts, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := opts.Config.RowHammerThreshold, 4800/16; got != want {
		t.Errorf("scaled T_RH = %d, want %d", got, want)
	}
	if opts.CycleLimit != 2*opts.Config.EpochCycles {
		t.Errorf("CycleLimit = %d, want %d", opts.CycleLimit, 2*opts.Config.EpochCycles)
	}
	if opts.InstructionsPerCore != 1<<62 {
		t.Errorf("InstructionsPerCore = %d, want effectively unlimited", opts.InstructionsPerCore)
	}
	if opts.Mitigation == nil {
		t.Error("mitigation factory missing for rrs")
	}
	if len(opts.Workloads) != 1 || opts.Workloads[0].Name != "bzip2" {
		t.Errorf("workloads = %v", opts.Workloads)
	}
}
