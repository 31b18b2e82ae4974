package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/experiments"
)

// TestModeFlags: every exclusive mode rejects a flag it would silently
// ignore, with the mode's message, and accepts every flag it reads.
func TestModeFlags(t *testing.T) {
	cacheDir := t.TempDir()
	for _, tc := range []struct {
		mode     string
		c        config // selects the mode
		rejected []string
		want     string // message for the first rejected flag
	}{
		{"-list-variants", config{list: true}, []string{"exp"},
			"-exp has no effect with -list-variants"},
		{"-status", config{status: "http://127.0.0.1:1"}, []string{"exp", "workers", "out"},
			"-exp has no effect with -status"},
		{"-agent", config{agent: "http://127.0.0.1:1"}, []string{"graphs", "serve", "out"},
			"-graphs has no effect with -agent (the coordinator defines the run)"},
		{"-serve", config{serve: "127.0.0.1:0"}, []string{"workers", "cache", "report"},
			"-cache has no effect with -serve (workers run in -agent processes)"},
		{"-cache-stats/-cache-gc", config{cacheStats: true, cacheDir: cacheDir}, []string{"report", "exp"},
			"-exp has no effect with -cache-stats/-cache-gc"},
		{"-cache-stats/-cache-gc", config{cacheGC: time.Hour, cacheDir: cacheDir}, []string{"workers"},
			"-workers has no effect with -cache-stats/-cache-gc"},
		{"a local run", config{}, []string{"lease-timeout", "batch", "worker-id", "token"},
			"-batch has no effect with a local run (it applies to a coordinator or its clients)"},
	} {
		m, ok := modeFlags[tc.mode]
		if !ok {
			t.Fatalf("no flag table for mode %s", tc.mode)
		}
		if got := tc.c.mode(); got != tc.mode {
			t.Fatalf("%+v selects mode %s, want %s", tc.c, got, tc.mode)
		}
		explicit := map[string]bool{}
		for _, name := range m.Allowed {
			explicit[name] = true
		}
		if err := experiments.CheckModeFlags(modeFlags, tc.mode, explicit); err != nil {
			t.Errorf("%s rejects its own flags: %v", tc.mode, err)
		}
		for _, name := range tc.rejected {
			explicit[name] = true
		}
		tc.c.explicit = explicit
		err := run(tc.c)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s with %v: err %v, want %q", tc.mode, tc.rejected, err, tc.want)
		}
	}

	// A rejected command line acts on nothing: not even the profile file
	// it names is created.
	prof := filepath.Join(t.TempDir(), "cpu.pb.gz")
	c := config{serve: "127.0.0.1:0", cpuProfile: prof,
		explicit: map[string]bool{"serve": true, "cpuprofile": true}}
	want := "-cpuprofile has no effect with -serve (workers run in -agent processes)"
	if err := run(c); err == nil || err.Error() != want {
		t.Errorf("-serve -cpuprofile: err %v, want %q", err, want)
	}
	if _, err := os.Stat(prof); !os.IsNotExist(err) {
		t.Errorf("rejected -serve -cpuprofile left %s behind (stat: %v)", prof, err)
	}
}

// TestStateNeedsServe: the coordinator's journal flag outside -serve is
// an error, not a silent no-op.
func TestStateNeedsServe(t *testing.T) {
	c := config{stateDir: t.TempDir(), explicit: map[string]bool{"state": true}}
	want := "-state has no effect with a local run (it applies to a coordinator or its clients)"
	if err := run(c); err == nil || err.Error() != want {
		t.Errorf("-state: err %v, want %q", err, want)
	}
}

// TestModesAcceptTheirFlags drives the modes that finish without a peer
// through run with every flag they read set: the flag check passes and
// the mode does its work.
func TestModesAcceptTheirFlags(t *testing.T) {
	cacheDir := t.TempDir()
	c := config{cacheDir: cacheDir, cacheStats: true, cacheGC: time.Hour,
		explicit: map[string]bool{"cache": true, "cache-stats": true, "cache-gc": true}}
	if err := run(c); err != nil {
		t.Errorf("-cache-stats -cache-gc: %v", err)
	}
	c = config{args: []string{"a.json"}, explicit: map[string]bool{}}
	if err := run(c); err == nil || err.Error() != `unexpected arguments ["a.json"]` {
		t.Errorf("stray arguments: err %v", err)
	}
}
