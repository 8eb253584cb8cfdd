package federation

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"nexus/internal/wire"
)

// ErrTimeout is the sentinel every federation timeout matches:
// errors.Is(err, ErrTimeout) holds for a connect that exceeded its
// timeout and for a handshake read that hit its deadline alike.
var ErrTimeout = errors.New("federation: timeout")

// TimeoutError is the typed error for a dial or handshake that ran out
// of time. It matches ErrTimeout under errors.Is and reports
// Timeout() == true, so callers using the net.Error convention see it
// too.
type TimeoutError struct {
	Op      string        // "dial", "hello", "subscribe"
	Addr    string        // peer address
	Elapsed time.Duration // the budget that ran out
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("federation: %s %s timed out after %v", e.Op, e.Addr, e.Elapsed)
}

// Timeout implements the net.Error convention.
func (e *TimeoutError) Timeout() bool { return true }

// Is makes errors.Is(err, ErrTimeout) match.
func (e *TimeoutError) Is(target error) bool { return target == ErrTimeout }

// DialOpts configures the network budgets of DialMux and
// SubscribeFailover. The zero value gets the defaults.
type DialOpts struct {
	// ConnectTimeout bounds the TCP connect (default 5s).
	ConnectTimeout time.Duration
	// HandshakeTimeout bounds the request/reply exchange that follows
	// the connect — hello ack, subscribe ack (default: ConnectTimeout).
	HandshakeTimeout time.Duration
	// RequestTimeout bounds each request/reply exchange after the
	// handshake — Execute, Store, Append, Drop (default 60s; negative
	// disables). A server that accepts a request and then goes silent
	// fails the call with a *TimeoutError instead of hanging it
	// forever; the connection is poisoned afterwards, since a late
	// reply would be credited to the next call.
	RequestTimeout time.Duration
	// Tenant is the admission-control token sent in the hello exchange.
	// Servers with per-tenant quotas account this connection's
	// subscriptions, appends and scans against it; empty means the
	// anonymous tenant.
	Tenant string
	// Trace, when valid, is propagated on the hello exchange: the dial
	// records a client span under it and the server parents its
	// handshake span there, so connection setup shows up inside the
	// caller's trace. The zero value costs nothing.
	Trace wire.TraceCtx
}

// DefaultConnectTimeout bounds a federation dial when the caller did
// not choose one: a dead or blackholed peer fails fast instead of
// hanging the coordinator on the kernel's connect timeout.
const DefaultConnectTimeout = 5 * time.Second

// DefaultRequestTimeout bounds a post-handshake request/reply exchange
// when the caller did not choose one. Generous — a federated Execute
// may scan a large dataset — but finite, so a hung server cannot stall
// a coordinator forever.
const DefaultRequestTimeout = 60 * time.Second

func (o DialOpts) withDefaults() DialOpts {
	if o.ConnectTimeout <= 0 {
		o.ConnectTimeout = DefaultConnectTimeout
	}
	if o.HandshakeTimeout <= 0 {
		o.HandshakeTimeout = o.ConnectTimeout
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = DefaultRequestTimeout
	}
	if o.RequestTimeout < 0 {
		o.RequestTimeout = 0
	}
	return o
}

// dialConn connects with the configured budget, classifying timeouts.
func dialConn(ctx context.Context, addr string, o DialOpts) (net.Conn, error) {
	d := net.Dialer{Timeout: o.ConnectTimeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		if isTimeout(err) {
			return nil, &TimeoutError{Op: "dial", Addr: addr, Elapsed: o.ConnectTimeout}
		}
		return nil, fmt.Errorf("federation: dial %s: %w", addr, err)
	}
	return conn, nil
}

// isTimeout reports whether err is a deadline/timeout failure.
func isTimeout(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	return errors.Is(err, context.DeadlineExceeded)
}
