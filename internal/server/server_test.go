package server

import (
	"net"
	"strings"
	"testing"

	"nexus/internal/core"
	"nexus/internal/datagen"
	"nexus/internal/engines/relational"
	"nexus/internal/wire"
)

func startServer(t *testing.T) (*Server, *relational.Engine) {
	t.Helper()
	eng := relational.New("srv")
	if err := eng.Store("sales", datagen.Sales(1, 200, 20, 10)); err != nil {
		t.Fatal(err)
	}
	s, err := Serve(eng, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.Logf = t.Logf
	t.Cleanup(s.Close)
	return s, eng
}

func dial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func TestHelloExchange(t *testing.T) {
	s, eng := startServer(t)
	conn := dial(t, s.Addr())
	if _, err := wire.WriteFrame(conn, wire.MsgHello, nil); err != nil {
		t.Fatal(err)
	}
	typ, payload, _, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.MsgHelloAck {
		t.Fatalf("got %v", typ)
	}
	h, err := wire.DecodeHelloAck(payload)
	if err != nil {
		t.Fatal(err)
	}
	if h.Name != "srv" || len(h.Datasets) != 1 || h.Datasets[0].Name != "sales" {
		t.Fatalf("hello = %+v", h)
	}
	if h.CapBits != eng.Capabilities().Bits() {
		t.Fatal("capability bits differ")
	}
}

func TestMalformedPayloadSurvives(t *testing.T) {
	s, _ := startServer(t)
	conn := dial(t, s.Addr())
	// Garbage execute payload: the server must reply MsgError, not die.
	if _, err := wire.WriteFrame(conn, wire.MsgExecute, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	typ, _, _, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.MsgError {
		t.Fatalf("got %v, want error", typ)
	}
	// The same connection must still answer a hello.
	if _, err := wire.WriteFrame(conn, wire.MsgHello, nil); err != nil {
		t.Fatal(err)
	}
	typ, _, _, err = wire.ReadFrame(conn)
	if err != nil || typ != wire.MsgHelloAck {
		t.Fatalf("connection dead after error: %v %v", typ, err)
	}
}

// TestDeepPlanRefusedServerKeepsServing: an Execute whose plan nests
// past the wire decoder's depth bound gets an error frame instead of
// exhausting the stack (a fatal error no recover can catch, which
// would drop every tenant), and a second client's query on the same
// server still succeeds.
func TestDeepPlanRefusedServerKeepsServing(t *testing.T) {
	s, eng := startServer(t)
	sales, _ := eng.Dataset("sales")
	scan, err := core.NewScan("sales", sales.Schema())
	if err != nil {
		t.Fatal(err)
	}
	deep := core.Node(scan)
	for i := 0; i < 2*wire.MaxDecodeDepth; i++ {
		p, err := core.NewProject(deep, []string{"sale_id"})
		if err != nil {
			t.Fatal(err)
		}
		deep = p
	}

	hostile := dial(t, s.Addr())
	if _, err := wire.WriteFrame(hostile, wire.MsgExecute, wire.EncodeExecute(1, deep)); err != nil {
		t.Fatal(err)
	}
	typ, payload, _, err := wire.ReadFrame(hostile)
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.MsgError {
		t.Fatalf("deep plan answered %v, want error", typ)
	}
	if _, msg, _ := wire.DecodeError(payload); !strings.Contains(msg, wire.ErrTooDeep.Error()) {
		t.Fatalf("deep plan error %q does not name the depth bound", msg)
	}

	other := dial(t, s.Addr())
	if _, err := wire.WriteFrame(other, wire.MsgExecute, wire.EncodeExecute(2, scan)); err != nil {
		t.Fatal(err)
	}
	typ, payload, _, err = wire.ReadFrame(other)
	if err != nil || typ != wire.MsgResult {
		t.Fatalf("second client's query: %v %v", typ, err)
	}
	if _, tab, err := wire.DecodeResult(payload); err != nil || tab.NumRows() != sales.NumRows() {
		t.Fatalf("second client's result: err=%v", err)
	}
}

func TestStoreDropRoundTrip(t *testing.T) {
	s, eng := startServer(t)
	conn := dial(t, s.Addr())
	tab := datagen.Customers(2, 10)
	if _, err := wire.WriteFrame(conn, wire.MsgStore, wire.EncodeStore("c", tab)); err != nil {
		t.Fatal(err)
	}
	typ, _, _, err := wire.ReadFrame(conn)
	if err != nil || typ != wire.MsgAck {
		t.Fatalf("store reply %v %v", typ, err)
	}
	if _, ok := eng.Dataset("c"); !ok {
		t.Fatal("store lost")
	}
	if _, err := wire.WriteFrame(conn, wire.MsgDrop, wire.EncodeDrop("c")); err != nil {
		t.Fatal(err)
	}
	typ, _, _, err = wire.ReadFrame(conn)
	if err != nil || typ != wire.MsgAck {
		t.Fatalf("drop reply %v %v", typ, err)
	}
	if _, ok := eng.Dataset("c"); ok {
		t.Fatal("drop ignored")
	}
}

func TestPushTableBetweenServers(t *testing.T) {
	_, engA := startServer(t)
	sB, engB := startServer(t)
	_ = engA
	tab := datagen.Products(3, 15)
	bytes, err := PushTable(sB.Addr(), "products", tab)
	if err != nil {
		t.Fatal(err)
	}
	if bytes <= 0 {
		t.Fatal("no bytes accounted")
	}
	got, ok := engB.Dataset("products")
	if !ok || got.NumRows() != 15 {
		t.Fatal("push did not land")
	}
}

func TestCloseStopsAccepting(t *testing.T) {
	s, _ := startServer(t)
	addr := s.Addr()
	s.Close()
	if _, err := net.Dial("tcp", addr); err == nil {
		// A dial race can succeed just as the listener closes; a
		// subsequent read must fail.
		conn, _ := net.Dial("tcp", addr)
		if conn != nil {
			conn.Close()
		}
	}
}

// memCkpt is an in-memory CheckpointStore for tests.
type memCkpt struct{ m map[string][]byte }

func (c *memCkpt) SaveCheckpoint(k string, d []byte) error {
	c.m[k] = append([]byte(nil), d...)
	return nil
}
func (c *memCkpt) LoadCheckpoint(k string) ([]byte, bool, error) { d, ok := c.m[k]; return d, ok, nil }
func (c *memCkpt) DeleteCheckpoint(k string) error               { delete(c.m, k); return nil }
func (c *memCkpt) Checkpoints() ([]string, error) {
	var keys []string
	for k := range c.m {
		keys = append(keys, k)
	}
	return keys, nil
}

// TestResumeSensitiveDatasets pins the compactor guard: datasets named
// by stored dataset-mode durable checkpoints are reported (their resume
// positions are row offsets into the replay's storage order), while
// push-mode checkpoints mark nothing.
func TestResumeSensitiveDatasets(t *testing.T) {
	cs := &memCkpt{m: map[string][]byte{}}
	cs.m["job"] = wire.EncodeSubscribeStream(wire.StreamSub{
		ID: 1, SourceKind: wire.StreamSrcDataset, Dataset: "sales",
		TimeCol: "sale_id", Durable: "job", Spec: windowedSpec(t),
	})
	cs.m["pjob"] = wire.EncodeSubscribeStream(wire.StreamSub{
		ID: 2, SourceKind: wire.StreamSrcPush, Durable: "pjob", Spec: windowedSpec(t),
	})
	eng := relational.New("srv")
	if err := eng.Store("sales", datagen.Sales(1, 100, 10, 5)); err != nil {
		t.Fatal(err)
	}
	s, err := ServeWithCheckpoints(eng, "127.0.0.1:0", cs, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Logf = func(string, ...any) {}
	defer s.Close()

	got, err := s.ResumeSensitiveDatasets()
	if err != nil {
		t.Fatal(err)
	}
	if !got["sales"] {
		t.Fatal("dataset-mode checkpoint did not mark its dataset resume-sensitive")
	}
	if len(got) != 1 {
		t.Fatalf("resume-sensitive set = %v, want only sales", got)
	}
	// An undecodable checkpoint fails SAFE: the caller gets an error and
	// must veto compaction entirely, not proceed with a partial set.
	cs.m["junk"] = []byte("not a subscription")
	if _, err := s.ResumeSensitiveDatasets(); err == nil {
		t.Fatal("corrupt checkpoint did not surface an error")
	}
	cs.DeleteCheckpoint("junk")
	// Retiring the checkpoint releases the dataset for compaction.
	cs.DeleteCheckpoint("job")
	if got, err := s.ResumeSensitiveDatasets(); err != nil || len(got) != 0 {
		t.Fatalf("resume-sensitive set after retirement = %v err=%v, want empty", got, err)
	}
}
