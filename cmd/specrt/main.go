// Command specrt runs the paper-reproduction experiments: the §5.1
// latency table, Figures 11-14, and the ablations.
//
// Usage:
//
//	specrt [-scale quick|default|paper] [-parallel N] [-topology T] [-placement P] [-dirmode D] [-procs N] [latencies|fig11|fig12|fig13|fig14|network|wide|adaptive|ablations|all]
//
// Experiment cells are independent deterministic simulations; -parallel
// (default: all host cores) bounds how many run at once. Output is
// byte-identical at every parallelism level. -cpuprofile/-memprofile
// write pprof profiles for hot-path work.
//
// -topology selects the interconnect model (ideal reproduces the
// paper's flat hop cost; bus, crossbar and mesh add link queueing; an
// explicit mesh shape spells as mesh:WxH), -placement the
// page-placement policy for workload arrays, and -dirmode the directory
// sharer representation (full-map or coarse); all apply to every
// experiment cell except where an ablation sweeps the field itself (the
// mesh-contention ablation sets its topology and placement; the
// wide-scale ablation its topology, directory mode and auto mesh
// shape). The network command prints the mesh-contention
// ablation on its own, and wide prints the wide-scale scaling ablation
// (procs x directory mode x topology, up to -procs processors —
// default 1024). adaptive prints the adaptive speculation-policy
// ablation: every workload under the four pinned static strategies and
// under the learned threshold/cost directors, with the learned
// directors' per-instance decision traces on the phase-changing loop.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"specrt/internal/core"
	"specrt/internal/directory"
	"specrt/internal/harness"
	"specrt/internal/interconnect"
	"specrt/internal/loops"
	"specrt/internal/mem"
	"specrt/internal/run"
	"specrt/internal/server"
	"specrt/internal/stats"
)

func main() {
	scaleFlag := flag.String("scale", "default", "experiment scale: quick, default or paper")
	formatFlag := flag.String("format", "table", "output format: table or csv (csv for latencies/fig11..fig14/network only)")
	parallelFlag := flag.Int("parallel", 0, "worker-pool size for experiment cells (0 = all host cores, 1 = sequential)")
	topoFlag := flag.String("topology", "ideal", "interconnect topology: ideal, bus, crossbar, mesh or mesh:WxH")
	placeFlag := flag.String("placement", "round-robin", "page placement: round-robin, blocked or local")
	dirFlag := flag.String("dirmode", "full-map", "directory sharer representation: full-map or coarse")
	procsFlag := flag.Int("procs", 0, "wide command: largest processor count of the scaling ladder (0 = 1024); job command: processor count")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	serverFlag := flag.String("server", "", "job command: specrtd base URL (empty = execute locally)")
	tenantFlag := flag.String("tenant", "", "job command: X-Tenant sent to the server")
	workloadFlag := flag.String("workload", "Track", "job command: workload name (Ocean|P3m|Adm|Track)")
	modeFlag := flag.String("mode", "hw", "job command: execution scheme (serial|ideal|sw|hw)")
	schedFlag := flag.String("sched", "", "job command: schedule override (static|dynamic:N|block-cyclic:N)")
	maxExecFlag := flag.Int("maxexec", 0, "job command: cap simulated loop executions (0 = scale default)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [-scale quick|default|paper] [-parallel N] [-topology T] [-placement P] [-dirmode D] [-procs N] [latencies|fig11|fig12|fig13|fig14|stats|network|wide|adaptive|ablations|all]\n", os.Args[0])
		fmt.Fprintf(os.Stderr, "       %s [-server URL] [-workload W] [-mode M] [-procs N] [-topology T] [-placement P] [-dirmode D] [-sched S] [-maxexec N] job\n", os.Args[0])
		flag.PrintDefaults()
	}
	flag.Parse()

	sc, err := harness.ScaleByName(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	ncfg, err := interconnect.ParseSpec(*topoFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
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
	h := harness.NewParallel(sc, *parallelFlag)
	h.Topology = ncfg.Kind
	h.MeshW, h.MeshH = ncfg.MeshW, ncfg.MeshH
	h.Placement = place
	h.DirMode = dirMode

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final heap state
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	cmd := "all"
	if flag.NArg() > 0 {
		cmd = flag.Arg(0)
	}
	out := os.Stdout
	csvMode := *formatFlag == "csv"
	if *formatFlag != "table" && *formatFlag != "csv" {
		fmt.Fprintf(os.Stderr, "unknown format %q\n", *formatFlag)
		os.Exit(2)
	}
	checkCSV := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	switch cmd {
	case "job":
		procs := *procsFlag
		if procs == 0 {
			procs = loops.Procs(*workloadFlag)
		}
		req := server.JobRequest{
			Workload:      *workloadFlag,
			Mode:          *modeFlag,
			Procs:         procs,
			Topology:      *topoFlag,
			Placement:     *placeFlag,
			DirMode:       *dirFlag,
			Sched:         *schedFlag,
			MaxExecutions: *maxExecFlag,
		}
		if err := runJob(out, req, *serverFlag, *tenantFlag, sc); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case "latencies":
		if csvMode {
			checkCSV(harness.WriteLatenciesCSV(out))
			return
		}
		harness.PrintLatencies(out)
	case "fig11":
		if csvMode {
			checkCSV(h.Fig11().WriteCSV(out))
			return
		}
		h.PrintFig11(out)
	case "fig12":
		if csvMode {
			checkCSV(h.Fig12().WriteCSV(out))
			return
		}
		h.PrintFig12(out)
		h.PrintFig12Bars(out)
	case "fig13":
		if csvMode {
			checkCSV(h.Fig13().WriteCSV(out))
			return
		}
		h.PrintFig13(out)
		h.PrintFig13Bars(out)
	case "fig14":
		if csvMode {
			checkCSV(h.Fig14().WriteCSV(out))
			return
		}
		h.PrintFig14(out)
	case "stats":
		h.PrintProtoStats(out)
		core.PrintStateCosts(out, 16, 1<<16)
	case "network":
		if csvMode {
			checkCSV(harness.MeshResult{Rows: h.AblationMeshContention()}.WriteCSV(out))
			return
		}
		h.PrintAblationMeshContention(out)
	case "wide":
		ladder := harness.WideProcsUpTo(*procsFlag)
		if csvMode {
			checkCSV(harness.WideResult{Rows: h.AblationWide(ladder)}.WriteCSV(out))
			return
		}
		h.PrintAblationWide(out, ladder)
	case "adaptive":
		if csvMode {
			checkCSV(harness.DirectorsResult{Rows: h.AblationDirectors(0)}.WriteCSV(out))
			return
		}
		h.PrintAblationDirectors(out, 0)
	case "ablations":
		h.Ablations(out)
	case "all":
		h.All(out)
		h.PrintProtoStats(out)
		core.PrintStateCosts(out, 16, 1<<16)
		h.Ablations(out)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// runJob executes one simulation job and writes the encoded report. With
// a server URL the CLI is a thin client — submit, poll, fetch — and the
// bytes written are identical to what the local path produces for the
// same spec at the same scale (the server guarantees it; the CI e2e job
// asserts it).
func runJob(out io.Writer, req server.JobRequest, serverURL, tenant string, sc harness.Scale) error {
	if serverURL != "" {
		cl := &server.Client{BaseURL: serverURL, Tenant: tenant}
		sub, err := cl.Submit(req)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "specrt: job %s %s (cached=%t)\n", sub.ID, sub.Status, sub.Cached)
		b, err := cl.WaitResult(sub.ID)
		if err != nil {
			return err
		}
		_, err = out.Write(b)
		return err
	}
	spec, err := req.Spec()
	if err != nil {
		return err
	}
	w, cfg, err := harness.ResolveJob(spec, sc)
	if err != nil {
		return err
	}
	res, err := run.Execute(w, cfg)
	if err != nil {
		return err
	}
	b, err := stats.ReportOf(res).Encode()
	if err != nil {
		return err
	}
	_, err = out.Write(b)
	return err
}
