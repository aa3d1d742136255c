package interconnect

import (
	"encoding/json"
	"testing"

	"specrt/internal/sim"
)

func TestKindByNameRoundTrip(t *testing.T) {
	for _, k := range []Kind{Ideal, Bus, Crossbar, Mesh} {
		got, err := KindByName(k.String())
		if err != nil || got != k {
			t.Errorf("KindByName(%q) = %v, %v", k.String(), got, err)
		}
	}
	if got, err := KindByName(""); err != nil || got != Ideal {
		t.Errorf("empty name: got %v, %v, want Ideal", got, err)
	}
	if got, err := KindByName("xbar"); err != nil || got != Crossbar {
		t.Errorf("xbar alias: got %v, %v, want Crossbar", got, err)
	}
	if _, err := KindByName("torus"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestKindJSON(t *testing.T) {
	b, err := json.Marshal(Mesh)
	if err != nil || string(b) != `"mesh"` {
		t.Fatalf("marshal: %s, %v", b, err)
	}
	var k Kind
	if err := json.Unmarshal([]byte(`"crossbar"`), &k); err != nil || k != Crossbar {
		t.Fatalf("unmarshal: %v, %v", k, err)
	}
	if err := json.Unmarshal([]byte(`"torus"`), &k); err == nil {
		t.Error("bad topology name unmarshalled")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Nodes: 0}).Validate(); err == nil {
		t.Error("zero nodes accepted")
	}
	if err := (Config{Kind: Mesh + 1, Nodes: 4}).Validate(); err == nil {
		t.Error("unknown kind accepted")
	}
	if err := (Config{Nodes: 4, HopLat: -1}).Validate(); err == nil {
		t.Error("negative hop latency accepted")
	}
	if _, err := New(Config{Nodes: 0}); err == nil {
		t.Error("New accepted bad config")
	}
}

func TestIdealPassthrough(t *testing.T) {
	n := MustNew(Config{Kind: Ideal, Nodes: 16})
	for i := 0; i < 5; i++ {
		if got := n.Send(0, 7, sim.Time(i*100), 70); got != 70 {
			t.Fatalf("Send #%d = %d, want base 70", i, got)
		}
	}
	if got := n.Send(3, 3, 0, 70); got != 70 {
		t.Fatalf("self-send = %d, want 70", got)
	}
	if n.Stats() != (Stats{}) {
		t.Fatalf("ideal stats = %+v, want zero", n.Stats())
	}
}

func TestBusSerializes(t *testing.T) {
	n := MustNew(Config{Kind: Bus, Nodes: 4, LinkOcc: 8})
	// First message at an idle bus: just the base latency.
	if got := n.Send(0, 1, 100, 70); got != 70 {
		t.Fatalf("first send = %d, want 70", got)
	}
	// Second message at the same instant waits one occupancy — even for a
	// disjoint pair, since the medium is shared.
	if got := n.Send(2, 3, 100, 70); got != 78 {
		t.Fatalf("second send = %d, want 70+8", got)
	}
	// Self-sends bypass the bus entirely.
	if got := n.Send(1, 1, 100, 70); got != 70 {
		t.Fatalf("self-send = %d, want 70", got)
	}
	st := n.Stats()
	if st.Messages != 2 || st.LinkStalls != 1 || st.MaxLinkQueue != 2 {
		t.Fatalf("stats = %+v, want 2 messages, 1 stall, depth 2", st)
	}
	n.Reset()
	if n.Stats() != (Stats{}) {
		t.Fatalf("stats after Reset = %+v", n.Stats())
	}
	if got := n.Send(0, 1, 0, 70); got != 70 {
		t.Fatalf("send after Reset = %d, want 70", got)
	}
}

func TestCrossbarPerDestinationPorts(t *testing.T) {
	n := MustNew(Config{Kind: Crossbar, Nodes: 4, LinkOcc: 8})
	// Different destinations at the same instant: no contention.
	if got := n.Send(0, 1, 50, 70); got != 70 {
		t.Fatalf("to node 1 = %d, want 70", got)
	}
	if got := n.Send(2, 3, 50, 70); got != 70 {
		t.Fatalf("to node 3 = %d, want 70", got)
	}
	// Same destination: the second message queues at the output port.
	if got := n.Send(2, 1, 50, 70); got != 78 {
		t.Fatalf("second to node 1 = %d, want 70+8", got)
	}
	st := n.Stats()
	if st.Messages != 3 || st.LinkStalls != 1 {
		t.Fatalf("stats = %+v, want 3 messages, 1 stall", st)
	}
}

func TestMeshDistanceLatency(t *testing.T) {
	// 16 nodes → 4x4 grid. Node n sits at (n%4, n/4).
	n := MustNew(Config{Kind: Mesh, Nodes: 16, HopLat: 35, LinkOcc: 8})
	cases := []struct {
		from, to int
		hops     sim.Time
	}{
		{0, 1, 1},  // one X hop
		{0, 4, 1},  // one Y hop
		{0, 5, 2},  // (0,0)→(1,1)
		{0, 15, 6}, // corner to corner
		{15, 0, 6}, // and back
	}
	for _, c := range cases {
		want := c.hops * 35
		if got := n.MinLatency(c.from, c.to, 70); got != want {
			t.Errorf("MinLatency(%d,%d) = %d, want %d", c.from, c.to, got, want)
		}
	}
	if got := n.MinLatency(3, 3, 70); got != 70 {
		t.Errorf("self MinLatency = %d, want base", got)
	}
	// Unloaded sends match the floor.
	fresh := MustNew(Config{Kind: Mesh, Nodes: 16, HopLat: 35, LinkOcc: 8})
	for _, c := range cases {
		want := c.hops * 35
		if got := fresh.Send(c.from, c.to, 0, 70); got != want {
			t.Errorf("unloaded Send(%d,%d) = %d, want %d", c.from, c.to, got, want)
		}
		fresh.Reset()
	}
}

func TestMeshLinkQueueing(t *testing.T) {
	n := MustNew(Config{Kind: Mesh, Nodes: 16, HopLat: 35, LinkOcc: 8})
	// Two messages entering the same first link (0→1) at the same time:
	// the second starts one occupancy later.
	if got := n.Send(0, 1, 0, 70); got != 35 {
		t.Fatalf("first = %d, want 35", got)
	}
	if got := n.Send(0, 1, 0, 70); got != 43 {
		t.Fatalf("second = %d, want 8+35", got)
	}
	// A disjoint link is unaffected.
	if got := n.Send(4, 5, 0, 70); got != 35 {
		t.Fatalf("disjoint link = %d, want 35", got)
	}
	st := n.Stats()
	if st.Messages != 3 || st.LinkStalls != 1 || st.MaxLinkQueue != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMeshPerPairFIFO(t *testing.T) {
	// Later sends on the same pair never overtake earlier ones, even when
	// issued at increasing times that land inside the backlog.
	n := MustNew(Config{Kind: Mesh, Nodes: 16, HopLat: 35, LinkOcc: 20})
	var lastArrival sim.Time
	for i := 0; i < 20; i++ {
		now := sim.Time(i) // sends nearly back-to-back
		arrival := now + n.Send(0, 15, now, 70)
		if arrival < lastArrival {
			t.Fatalf("send %d arrives at %d, before previous arrival %d", i, arrival, lastArrival)
		}
		lastArrival = arrival
	}
}

func TestSendDeterminism(t *testing.T) {
	for _, kind := range []Kind{Bus, Crossbar, Mesh} {
		a := MustNew(Config{Kind: kind, Nodes: 16})
		b := MustNew(Config{Kind: kind, Nodes: 16})
		for i := 0; i < 200; i++ {
			from, to := (i*7)%16, (i*13)%16
			now := sim.Time(i * 3)
			la := a.Send(from, to, now, 70)
			lb := b.Send(from, to, now, 70)
			if la != lb {
				t.Fatalf("%v send %d: %d != %d", kind, i, la, lb)
			}
		}
		if a.Stats() != b.Stats() {
			t.Fatalf("%v stats diverge: %+v vs %+v", kind, a.Stats(), b.Stats())
		}
	}
}

func TestMeshNonSquareNodeCounts(t *testing.T) {
	// Every node count must produce a grid that routes all pairs.
	for nodes := 1; nodes <= 20; nodes++ {
		n := MustNew(Config{Kind: Mesh, Nodes: nodes})
		for from := 0; from < nodes; from++ {
			for to := 0; to < nodes; to++ {
				if got := n.Send(from, to, 0, 70); got < 0 {
					t.Fatalf("nodes=%d Send(%d,%d) = %d", nodes, from, to, got)
				}
			}
		}
	}
}

func TestMeshExplicitShape(t *testing.T) {
	// 8 nodes on a 8x1 line: node n sits at (n, 0), so 0→7 is 7 X hops —
	// the auto near-square 3x3 grid puts node 7 at (1,2), 3 hops away.
	n := MustNew(Config{Kind: Mesh, Nodes: 8, MeshW: 8, MeshH: 1, HopLat: 35, LinkOcc: 8})
	if got := n.MinLatency(0, 7, 70); got != 7*35 {
		t.Fatalf("8x1 MinLatency(0,7) = %d, want %d", got, 7*35)
	}
	auto := MustNew(Config{Kind: Mesh, Nodes: 8, HopLat: 35, LinkOcc: 8})
	if got := auto.MinLatency(0, 7, 70); got != 3*35 {
		t.Fatalf("auto-shape MinLatency(0,7) = %d, want %d", got, 3*35)
	}
	// A shaped mesh with spare capacity still routes every real pair.
	wide := MustNew(Config{Kind: Mesh, Nodes: 6, MeshW: 4, MeshH: 2})
	for from := 0; from < 6; from++ {
		for to := 0; to < 6; to++ {
			if got := wide.Send(from, to, 0, 70); got < 0 {
				t.Fatalf("4x2 Send(%d,%d) = %d", from, to, got)
			}
		}
	}
}

func TestMeshShapeValidation(t *testing.T) {
	for _, c := range []Config{
		{Kind: Mesh, Nodes: 16, MeshW: 4},             // half a shape
		{Kind: Mesh, Nodes: 16, MeshH: 4},             // other half
		{Kind: Mesh, Nodes: 16, MeshW: 3, MeshH: 4},   // too small
		{Kind: Mesh, Nodes: 16, MeshW: -4, MeshH: -4}, // negative
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", c)
		}
	}
	ok := Config{Kind: Mesh, Nodes: 16, MeshW: 8, MeshH: 2}
	if err := ok.Validate(); err != nil {
		t.Fatalf("Validate rejected %+v: %v", ok, err)
	}
	if got := ok.NodeCap(); got != 16 {
		t.Fatalf("NodeCap = %d, want 16", got)
	}
	if got := (Config{Kind: Crossbar, Nodes: 16}).NodeCap(); got != 0 {
		t.Fatalf("crossbar NodeCap = %d, want 0 (unbounded)", got)
	}
}

func TestParseSpec(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Config
	}{
		{"ideal", Config{Kind: Ideal}},
		{"", Config{Kind: Ideal}},
		{"bus", Config{Kind: Bus}},
		{"xbar", Config{Kind: Crossbar}},
		{"mesh", Config{Kind: Mesh}},
		{"mesh:8x4", Config{Kind: Mesh, MeshW: 8, MeshH: 4}},
		{"mesh:64x16", Config{Kind: Mesh, MeshW: 64, MeshH: 16}},
	} {
		got, err := ParseSpec(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSpec(%q) = %+v, %v; want %+v", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"torus", "mesh:", "mesh:8", "mesh:8x", "mesh:x4", "mesh:0x4", "mesh:-8x4", "bus:2x2"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) succeeded", bad)
		}
	}
}

// BenchmarkMeshRoute is one XY-routed message on a 32x32 mesh: the
// interconnect layer's cost for each deferred protocol message under the
// mesh topology. Endpoints step through the grid so route lengths vary,
// and each message leaves once the previous one has arrived.
func BenchmarkMeshRoute(b *testing.B) {
	const nodes = 32 * 32
	n := MustNew(Config{Kind: Mesh, Nodes: nodes})
	var now sim.Time
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now += n.Send(i*37%nodes, (i*101+511)%nodes, now, 0)
	}
}
