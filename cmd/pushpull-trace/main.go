// Command pushpull-trace prints the event timeline of a single Push-Pull
// messaging event on the simulated testbed — a teaching and debugging
// view of the protocol's phases (push, acknowledge/pull-request, pull,
// completion) with virtual timestamps. With -columns the two nodes print
// side by side; -summary appends per-event-kind counts, including the NIC
// and go-back-N layers.
//
// Usage:
//
//	pushpull-trace [-size N] [-mode push-pull|push-zero|push-all|three-phase]
//	               [-intra] [-late MS] [-pushedbuf N] [-columns] [-summary]
package main

import (
	"flag"
	"fmt"
	"os"

	"pushpull/internal/cluster"
	"pushpull/internal/pushpull"
	"pushpull/internal/sim"
	"pushpull/internal/smp"
	"pushpull/internal/trace"
)

func main() {
	size := flag.Int("size", 1400, "message size in bytes")
	mode := flag.String("mode", "push-pull", "messaging mode: push-pull, push-zero, push-all, three-phase")
	intra := flag.Bool("intra", false, "intranode transfer (default internode)")
	lateMS := flag.Int("late", 0, "delay the receive operation by this many virtual ms")
	pushedBuf := flag.Int("pushedbuf", 4096, "pushed buffer bytes")
	columns := flag.Bool("columns", false, "render one column per node")
	summary := flag.Bool("summary", false, "append per-kind event counts")
	breakdown := flag.Bool("breakdown", false, "append the critical-path phase breakdown (the paper's Figure 2, measured)")
	flag.Parse()

	opts := pushpull.DefaultOptions()
	opts.PushedBufBytes = *pushedBuf
	switch *mode {
	case "push-pull":
		opts.Mode = pushpull.PushPull
	case "push-zero":
		opts.Mode = pushpull.PushZero
	case "push-all":
		opts.Mode = pushpull.PushAll
	case "three-phase":
		opts.Mode = pushpull.ThreePhase
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}

	cfg := cluster.DefaultConfig()
	cfg.Opts = opts
	rNode := 1
	if *intra {
		cfg.Nodes = 1
		cfg.ProcsPerNode = 2
		rNode = 0
	}
	c := cluster.New(cfg)
	rec := trace.NewRecorder(0)
	c.SetRecorder(rec)
	api := func(t *smp.Thread, node int, note string) {
		rec.Record(trace.Event{T: t.Now(), Node: node, Kind: "api", Note: note})
	}

	sender := c.Endpoint(0, 0)
	var receiver *pushpull.Endpoint
	if *intra {
		receiver = c.Endpoint(0, 1)
	} else {
		receiver = c.Endpoint(1, 0)
	}

	msg := make([]byte, *size)
	for i := range msg {
		msg[i] = byte(i)
	}
	src := sender.Alloc(*size)
	dst := receiver.Alloc(*size)

	fmt.Printf("# %s, %d bytes, %s, pushed buffer %d B, receive delayed %d ms\n",
		*mode, *size, route(*intra), *pushedBuf, *lateMS)

	c.Nodes[0].Spawn("sender", sender.CPU, func(t *smp.Thread) {
		if err := sender.Send(t, receiver.ID, src, msg); err != nil {
			fmt.Fprintln(os.Stderr, "send:", err)
			os.Exit(1)
		}
		api(t, 0, "send() returned")
	})
	c.Nodes[rNode].SpawnAt(sim.Duration(*lateMS)*sim.Millisecond, "receiver", receiver.CPU, func(t *smp.Thread) {
		api(t, rNode, "recv() posted")
		got, err := receiver.Recv(t, sender.ID, dst, *size)
		if err != nil {
			fmt.Fprintln(os.Stderr, "recv:", err)
			os.Exit(1)
		}
		api(t, rNode, fmt.Sprintf("recv() returned %d bytes", len(got)))
	})
	end := c.Run()

	var err error
	if *columns {
		err = rec.RenderColumns(os.Stdout, 0)
	} else {
		err = rec.Render(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "render:", err)
		os.Exit(1)
	}
	fmt.Printf("# simulation drained at %v, %d events\n", end, rec.Total())
	if *summary {
		fmt.Print(rec.Summary())
	}
	if *breakdown {
		fmt.Print(trace.RenderBreakdown(trace.Breakdown(rec.Events())))
	}
}

func route(intra bool) string {
	if intra {
		return "intranode"
	}
	return "internode (Fast Ethernet)"
}
