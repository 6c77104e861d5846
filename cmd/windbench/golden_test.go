package main

import (
	"bytes"
	"os"
	"os/exec"
	"testing"
)

// TestMain lets a test run this binary as windbench itself: with
// WINDBENCH_MAIN=1 in its environment the process runs the command on its
// arguments and exits.
func TestMain(m *testing.M) {
	if os.Getenv("WINDBENCH_MAIN") == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// TestAllMatchesGolden runs `windbench all` at the default -n and -seed
// and compares its bytes with the committed results/exhibits.txt. A change
// that moves any byte on purpose regenerates that file in the same change.
func TestAllMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("../../results/exhibits.txt")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "all")
	cmd.Env = append(os.Environ(), "WINDBENCH_MAIN=1")
	cmd.Stderr = os.Stderr
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("windbench all: %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("windbench all differs from results/exhibits.txt at line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}
