package federation

import (
	"fmt"
	"net"
	"sync"

	"nexus/internal/core"
	"nexus/internal/engines/exec"
	"nexus/internal/provider"
	"nexus/internal/server"
	"nexus/internal/table"
	"nexus/internal/wire"
)

// InProc is an in-process transport: it calls the provider directly but
// runs every plan and table through the wire codec so that byte
// accounting matches what a socket transport would measure. Benchmarks
// use it to isolate protocol economics from kernel scheduling noise.
type InProc struct {
	prov provider.Provider

	// cache is shared by every stream subscription hosted through this
	// transport, matching the per-server cache a TCP server keeps.
	cacheOnce sync.Once
	cache     *exec.ExprCache
}

var (
	_ Transport       = (*InProc)(nil)
	_ StreamTransport = (*InProc)(nil)
)

// NewInProc wraps a provider as an in-process transport.
func NewInProc(p provider.Provider) *InProc { return &InProc{prov: p} }

// exprCache returns the transport's shared compiled-expression cache.
func (t *InProc) exprCache() *exec.ExprCache {
	t.cacheOnce.Do(func() { t.cache = exec.NewExprCache() })
	return t.cache
}

// Subscribe implements StreamTransport: the subscription rides a Mux
// over an in-memory pipe served by the same server code path a remote
// subscription hits, so the two cannot diverge. Each subscription gets
// its own pipe, closed when the stream ends: a synchronous pipe shared
// by concurrent streams would serialize them all through one reader on
// each side. The transport's expression cache spans subscriptions, like
// a TCP server's does.
func (t *InProc) Subscribe(sub wire.StreamSub) (*Subscription, error) {
	cli, srv := net.Pipe()
	go func() { _ = server.ServeConnCached(t.prov, srv, t.exprCache()) }()
	// An in-memory pipe cannot stall on the network: no budgets.
	mx, err := newMux(cli, "", DialOpts{})
	if err != nil {
		return nil, err
	}
	s, err := mx.Subscribe(sub)
	if err != nil {
		mx.Close()
		return nil, err
	}
	go func() {
		<-s.done
		mx.Close()
	}()
	return s, nil
}

// ProviderName implements Transport.
func (t *InProc) ProviderName() string { return t.prov.Name() }

// PeerAddr implements Transport (in-process peers are reached directly).
func (t *InProc) PeerAddr() string { return "" }

// Execute implements Transport.
func (t *InProc) Execute(plan core.Node, m *Metrics) (*table.Table, error) {
	planBytes := wire.EncodePlan(plan)
	// Round-trip the plan through the codec: the provider sees exactly
	// what a remote server would decode.
	decoded, err := wire.DecodePlan(planBytes)
	if err != nil {
		return nil, fmt.Errorf("inproc: plan codec: %w", err)
	}
	if m != nil {
		m.ClientBytesOut += int64(len(planBytes)) + frameOverhead
		m.RoundTrips++
	}
	res, err := t.prov.Execute(decoded)
	if err != nil {
		return nil, err
	}
	resBytes := wire.EncodeTable(res)
	if m != nil {
		m.ClientBytesIn += int64(len(resBytes)) + frameOverhead
	}
	out, err := wire.DecodeTable(resBytes)
	if err != nil {
		return nil, fmt.Errorf("inproc: result codec: %w", err)
	}
	return out, nil
}

// ExecuteTo implements Transport: the result moves provider→provider; the
// client pays only for the plan and a small ack.
func (t *InProc) ExecuteTo(plan core.Node, peer Transport, storeAs string, m *Metrics) error {
	peerIn, ok := peer.(*InProc)
	if !ok {
		return fmt.Errorf("inproc: peer transport is %T, want *InProc", peer)
	}
	planBytes := wire.EncodePlan(plan)
	decoded, err := wire.DecodePlan(planBytes)
	if err != nil {
		return fmt.Errorf("inproc: plan codec: %w", err)
	}
	if m != nil {
		m.ClientBytesOut += int64(len(planBytes)) + frameOverhead
		m.RoundTrips++
	}
	res, err := t.prov.Execute(decoded)
	if err != nil {
		return err
	}
	resBytes := wire.EncodeTable(res)
	shipped, err := wire.DecodeTable(resBytes)
	if err != nil {
		return fmt.Errorf("inproc: ship codec: %w", err)
	}
	if m != nil {
		m.PeerBytes += int64(len(resBytes)) + frameOverhead
		m.ClientBytesIn += ackBytes // the ack
	}
	return peerIn.prov.Store(storeAs, shipped)
}

// Store implements Transport.
func (t *InProc) Store(name string, tab *table.Table, m *Metrics) error {
	b := wire.EncodeStore(name, tab)
	if m != nil {
		m.ClientBytesOut += int64(len(b)) + frameOverhead
		m.ClientBytesIn += ackBytes
		m.RoundTrips++
	}
	decodedName, decoded, err := wire.DecodeStore(b)
	if err != nil {
		return fmt.Errorf("inproc: store codec: %w", err)
	}
	return t.prov.Store(decodedName, decoded)
}

// Drop implements Transport.
func (t *InProc) Drop(name string, m *Metrics) {
	if m != nil {
		m.ClientBytesOut += int64(len(name)) + frameOverhead
		m.ClientBytesIn += ackBytes
		m.RoundTrips++
	}
	t.prov.Drop(name)
}

// Framing constants mirrored from the wire message layer: 5 header bytes
// per frame, and an ack payload of id+rows+bytes (24) plus its frame.
const (
	frameOverhead = 5
	ackBytes      = 24 + frameOverhead
)
