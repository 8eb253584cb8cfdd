package main

import (
	"encoding/binary"
	"io"
	"net"
	"syscall"
	"time"
	"unsafe"
)

// refWork is a fixed piece of work of the benchmark's own, timed beside
// every read so a run can tell how fast the machine is running at that
// moment. It has the shape of a read and none of the program's code:
// the client sends a small request over a loopback TCP connection, a
// server goroutine answers with a filtered, grouped sum over 256Ki
// int64s in a 1 MiB reply, and the client reads the reply and copies
// 2 MiB. A noisy neighbour or a stolen core slows it as it slows the
// reads, so a read's time over the reference work's is steadier from
// run to run than either alone. Its arrays live outside the Go heap so
// they do not move heap_peak_mb or the collector's work.
type refWork struct {
	src, dst []int64
	conn     net.Conn // client end
	srv      net.Conn // server end, answered by a goroutine
	reply    []byte
	sink     int64
}

const (
	refWords = 1 << 18 // int64s the sum reads
	refReply = 1 << 20 // bytes per reply
)

func newRefWork() (*refWork, error) {
	mem, err := syscall.Mmap(-1, 0, 2*refWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	all := unsafe.Slice((*int64)(unsafe.Pointer(&mem[0])), 2*refWords)
	r := &refWork{src: all[:refWords], dst: all[refWords:], reply: make([]byte, refReply)}
	x := uint64(0x9e3779b97f4a7c15)
	for i := range r.src {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		r.src[i] = int64(x >> 1)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	if r.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		return nil, err
	}
	if r.srv = <-accepted; r.srv == nil {
		r.conn.Close()
		return nil, io.ErrUnexpectedEOF
	}
	go r.serve()
	return r, nil
}

// serve answers requests until the connection closes.
func (r *refWork) serve() {
	var req [8]byte
	reply := make([]byte, refReply)
	for {
		if _, err := io.ReadFull(r.srv, req[:]); err != nil {
			return
		}
		binary.LittleEndian.PutUint64(reply, uint64(sum(r.src)))
		if _, err := r.srv.Write(reply); err != nil {
			return
		}
	}
}

// close ends the connection and its goroutine. The arrays stay mapped
// until the process exits.
func (r *refWork) close() {
	r.conn.Close()
	r.srv.Close()
}

// sum is the filtered, grouped sum over v.
func sum(v []int64) int64 {
	var groups [64]int64
	for _, x := range v {
		if x&7 < 3 {
			groups[x&63] += x >> 20
		}
	}
	var s int64
	for _, g := range groups {
		s += g
	}
	return s
}

// run does the work once and returns how long it took.
func (r *refWork) run() (time.Duration, error) {
	start := time.Now()
	var req [8]byte
	if _, err := r.conn.Write(req[:]); err != nil {
		return 0, err
	}
	if _, err := io.ReadFull(r.conn, r.reply); err != nil {
		return 0, err
	}
	r.sink += int64(binary.LittleEndian.Uint64(r.reply))
	copy(r.dst, r.src)
	return time.Since(start), nil
}
