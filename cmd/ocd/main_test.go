package main

import (
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

// TestParseArgs pins flag validation: a valid command line binds, and
// every rejected one names the offending flag or operand.
func TestParseArgs(t *testing.T) {
	c, err := parseArgs([]string{"-mode", "scaled", "-scale", "60", "-shards", "4", "-j", "2", "-timeout", "1s"})
	if err != nil {
		t.Fatal(err)
	}
	if c.mode != "scaled" || c.scale != 60 || c.shards != 4 || c.Workers != 2 || c.Timeout != time.Second {
		t.Fatalf("flags not bound: %+v", c)
	}
	for _, tc := range []struct {
		args    []string
		wantErr string // substring the error must carry
	}{
		{[]string{"-scale", "0"}, "-scale"},
		{[]string{"-mode", "bogus"}, "-mode"},
		{[]string{"-shards", "-1"}, "-shards"},
		{[]string{"-j", "-2"}, "-j"},
		{[]string{"-timeout", "-1s"}, "-timeout"},
		{[]string{"extra-arg"}, `"extra-arg"`},
		{[]string{"-mode", "scaled", "extra-arg", "-shards", "2"}, `"extra-arg"`},
	} {
		_, err := parseArgs(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("ocd %s: error %v, want one naming %s", strings.Join(tc.args, " "), err, tc.wantErr)
		}
	}
}

// TestUsageErrorsReported pins that run reports a usage error on
// stderr as "ocd: <error>" and exits 2 before loading a fleet.
func TestUsageErrorsReported(t *testing.T) {
	for _, args := range [][]string{{"-scale", "0"}, {"-mode", "bogus"}, {"-shards", "-1"}} {
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		stderr := os.Stderr
		os.Stderr = w
		code := run(args)
		os.Stderr = stderr
		w.Close()
		out, _ := io.ReadAll(r)
		r.Close()
		if code != 2 {
			t.Errorf("ocd %s exited %d, want 2", strings.Join(args, " "), code)
		}
		if !strings.HasPrefix(string(out), "ocd: "+args[0]) {
			t.Errorf("ocd %s: stderr %q, want an \"ocd: %s …\" line", strings.Join(args, " "), out, args[0])
		}
	}
}
