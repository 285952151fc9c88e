// Package cli factors the flag and listener conventions shared by the
// repo's long-running binaries (octl, ocd): the common -j / -seed /
// -metrics / -pprof / -timeout flags and their validation, interleaved
// flag/operand parsing, and ":0"-friendly TCP listeners that log their
// resolved address so tests and scripts can bind an ephemeral port and
// discover it.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers the /debug/pprof handlers on DefaultServeMux
	"time"
)

// Common is the flag block shared by octl and ocd. Register wires it
// into a FlagSet; binaries keep their own extra flags alongside.
type Common struct {
	// Workers bounds the process-wide worker budget (0 = GOMAXPROCS).
	Workers int
	// Seed overrides RNG seeds (0 = calibrated defaults).
	Seed uint64
	// Timeout bounds one unit of work — an experiment for octl, an API
	// request's simulation hold for ocd (0 = none).
	Timeout time.Duration
	// Metrics names a file to write the final telemetry snapshot to as
	// JSON ("" = off).
	Metrics string
	// Pprof is a listen address for net/http/pprof ("" = off).
	Pprof string
}

// Register installs the shared flags on fs.
func (c *Common) Register(fs *flag.FlagSet) {
	fs.IntVar(&c.Workers, "j", 0, "shared worker budget for experiments and their internal sweeps (0 = GOMAXPROCS)")
	fs.Uint64Var(&c.Seed, "seed", 0, "override experiment RNG seeds (0 = calibrated defaults)")
	fs.DurationVar(&c.Timeout, "timeout", 0, "per-experiment timeout (0 = none)")
	fs.StringVar(&c.Metrics, "metrics", "", "write the run's telemetry snapshot as JSON to this file")
	fs.StringVar(&c.Pprof, "pprof", "", "serve net/http/pprof on this address (empty = off)")
}

// Validate rejects the negative -j and -timeout values the flag
// package parses without complaint.
func (c Common) Validate() error {
	if c.Workers < 0 {
		return errors.New("-j must be non-negative")
	}
	if c.Timeout < 0 {
		return errors.New("-timeout must be non-negative")
	}
	return nil
}

// ParseInterleaved parses fs over args accepting flags interleaved
// with positional operands (`octl all -j 8` and `octl -j 8 all` both
// work) and returns the operands in order.
func ParseInterleaved(fs *flag.FlagSet, args []string) ([]string, error) {
	var operands []string
	rest := args
	for {
		if err := fs.Parse(rest); err != nil {
			return nil, err
		}
		rest = fs.Args()
		if len(rest) == 0 {
			return operands, nil
		}
		operands = append(operands, rest[0])
		rest = rest[1:]
	}
}

// Listen binds a TCP listener on addr — ":0" picks an ephemeral port —
// and logs the resolved address to w as "<prog>: <what> on
// http://<host:port><path>", the line tests and scripts scrape the
// real port from.
func Listen(prog, what, addr, path string, w io.Writer) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%s: listen %s: %w", what, addr, err)
	}
	if w != nil {
		fmt.Fprintf(w, "%s: %s on http://%s%s\n", prog, what, ln.Addr(), path)
	}
	return ln, nil
}

// ServePprof binds addr per Listen and serves the net/http/pprof
// handlers in the background. Close the returned listener to stop; a
// "" addr is off and returns (nil, nil).
func ServePprof(prog, addr string, w io.Writer) (net.Listener, error) {
	if addr == "" {
		return nil, nil
	}
	ln, err := Listen(prog, "pprof", addr, "/debug/pprof/", w)
	if err != nil {
		return nil, err
	}
	// DefaultServeMux carries the net/http/pprof handlers.
	go http.Serve(ln, nil)
	return ln, nil
}
