// Command tracesim simulates a JSON-described loop (see internal/trace
// for the format) under the Serial, Ideal, SW and HW schemes and prints
// speedups, failure outcomes and time breakdowns.
//
// Usage:
//
//	tracesim [-procs N] [-modes Serial,Ideal,SW,HW] [-topology T] [-placement P] [-dirmode D] trace.json
//
// Reads stdin when no file is given. Exit status 1 if any speculative
// scheme failed (the loop is not parallel as scheduled). -topology
// routes deferred protocol messages over a contention-aware network
// model (ideal, bus, crossbar or mesh; ideal reproduces the paper's
// flat hop cost; mesh:WxH forces an explicit grid shape) and
// -placement picks the page placement for the loop's arrays; with a
// non-ideal topology a network summary line is printed per scheme.
// -procs accepts up to 1024 processors; -dirmode coarse switches the
// directory to the limited-pointer/coarse-vector sharer representation
// wide machines use.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"specrt/internal/directory"
	"specrt/internal/interconnect"
	"specrt/internal/mem"
	"specrt/internal/run"
	"specrt/internal/stats"
	"specrt/internal/trace"
)

func main() {
	procs := flag.Int("procs", 8, "processors for the parallel schemes")
	modesFlag := flag.String("modes", "Serial,Ideal,SW,HW", "comma-separated schemes to run")
	topoFlag := flag.String("topology", "ideal", "interconnect topology: ideal, bus, crossbar, mesh or mesh:WxH")
	placeFlag := flag.String("placement", "round-robin", "page placement: round-robin, blocked or local")
	dirFlag := flag.String("dirmode", "full-map", "directory sharer representation: full-map or coarse")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [-procs N] [-modes Serial,Ideal,SW,HW] [-topology T] [-placement P] [-dirmode D] [trace.json]\n", os.Args[0])
		flag.PrintDefaults()
	}
	flag.Parse()

	ncfg, err := interconnect.ParseSpec(*topoFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	topo := ncfg.Kind
	place, err := mem.PlacementByName(*placeFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	dirMode, err := directory.ModeByName(*dirFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var r io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer f.Close()
		r = f
	}
	w, err := trace.Parse(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var modes []run.Mode
	for _, name := range strings.Split(*modesFlag, ",") {
		m, err := run.ModeByName(strings.ToLower(strings.TrimSpace(name)))
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracesim:", err)
			os.Exit(2)
		}
		modes = append(modes, m)
	}

	var serial *run.Result
	anyFailed := false
	failNote := ""
	var netNotes []string
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scheme\tprocs\tcycles\tspeedup\tBusy\tMem\tSync\tfailures")
	for _, mode := range modes {
		p := *procs
		if mode == run.Serial {
			p = 1
		}
		res, err := run.Execute(w, run.Config{Procs: p, Mode: mode, Contention: true,
			Topology: topo, Placement: place,
			MeshW: ncfg.MeshW, MeshH: ncfg.MeshH, DirMode: dirMode})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if topo != interconnect.Ideal {
			n := stats.Network(res)
			netNotes = append(netNotes, fmt.Sprintf(
				"%v: %d messages, mean link wait %.1f, max link queue %d, max home queue %d",
				mode, n.Messages, n.LinkWaitMean, n.MaxLinkQueue, n.MaxHomeQueue))
		}
		if mode == run.Serial {
			serial = res
		}
		speed := "-"
		if serial != nil && mode != run.Serial {
			speed = fmt.Sprintf("%.2f", run.Speedup(serial, res))
		}
		b := res.Breakdown
		fmt.Fprintf(tw, "%v\t%d\t%d\t%s\t%d\t%d\t%d\t%d\n",
			mode, p, res.Cycles, speed, b.Busy, b.Mem, b.Sync, res.Failures)
		if res.Failures > 0 {
			anyFailed = true
			if res.FirstFailure != nil {
				failNote = res.FirstFailure.Error()
			}
		}
	}
	tw.Flush()
	for _, note := range netNotes {
		fmt.Println("network", note)
	}
	if failNote != "" {
		fmt.Println("first failure:", failNote)
	}
	if anyFailed {
		os.Exit(1)
	}
}
