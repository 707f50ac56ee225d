package main

import (
	"net"
	"sync/atomic"
	"time"
)

// spanKind names what a recorded interval covers.
type spanKind uint8

const (
	kindSetupDeploy  spanKind = iota // tpcc.NewWorld
	kindSetupLoad                    // World.Load
	kindSetupConnect                 // driver.Open on every terminal
	kindSetupWarmup                  // warm-up transactions
	kindTxn                          // one Terminal transaction call
	kindRT                           // client write → last response read
	kindServer                       // server's last request read → first response write
)

var kindNames = [...]string{"setup.deploy", "setup.load", "setup.connect", "setup.warmup", "txn", "rt", "server"}

func (k spanKind) String() string { return kindNames[k] }

// span is one interval recorded from the benchmark's own seams. Spans of one
// transaction share txn; set-up and warm-up spans carry txn 0. Times are
// nanoseconds on the run's monotonic clock.
type span struct {
	txn        uint64
	kind       spanKind
	typ        int8 // transaction type (tpcc.Tx*) for kindTxn spans, else -1
	start, end int64
	out, in    int64 // bytes written / read inside an rt span
}

func (s span) dur() int64 { return s.end - s.start }

// clock returns nanoseconds since an epoch. Tests substitute a scripted one.
type clock func() int64

func monotonic() clock {
	epoch := time.Now()
	return func() int64 { return int64(time.Since(epoch)) }
}

// link measures one driver↔server connection from outside the program. The
// driver gets clientEnd and tds.Server.ServeConn gets serverEnd; neither
// knows it is being watched. The protocol is strictly request/response, so a
// round trip starts at the first client write after a response and ends at
// the last client read before the next write (or before endRT). The server's
// busy interval runs from the last request read to the first response write.
//
// Client-side fields belong to the terminal goroutine and server-side fields
// to the ServeConn goroutine; the only shared field is txn. Read rtSpans and
// serverSpans only after ServeConn has returned.
type link struct {
	now clock
	txn atomic.Uint64 // transaction the terminal is running; 0 outside one

	// client side
	phase   int // phaseIdle, phaseSend or phaseRecv
	rt      span
	rtSpans []span

	// server side
	reqRead     int64
	reqPending  bool
	serverSpans []span
}

const (
	phaseIdle = iota
	phaseSend
	phaseRecv
)

func newLink(now clock) *link { return &link{now: now} }

// endRT closes the round trip in progress, if its response has arrived. The
// terminal calls it when a transaction returns, so every round trip lies
// inside its transaction's span.
func (l *link) endRT() {
	if l.phase == phaseRecv {
		l.rtSpans = append(l.rtSpans, l.rt)
	}
	l.phase = phaseIdle
}

// clientEnd is the socket handed to driver.Open.
type clientEnd struct {
	net.Conn
	l *link
}

func (c clientEnd) Write(p []byte) (int, error) {
	l := c.l
	if l.phase != phaseSend {
		l.endRT()
		l.rt = span{txn: l.txn.Load(), kind: kindRT, typ: -1, start: l.now()}
		l.phase = phaseSend
	}
	n, err := c.Conn.Write(p)
	l.rt.out += int64(n)
	return n, err
}

func (c clientEnd) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if l := c.l; n > 0 && l.phase != phaseIdle {
		l.rt.end = l.now()
		l.rt.in += int64(n)
		l.phase = phaseRecv
	}
	return n, err
}

// serverEnd is the socket handed to tds.Server.ServeConn.
type serverEnd struct {
	net.Conn
	l *link
}

func (s serverEnd) Read(p []byte) (int, error) {
	n, err := s.Conn.Read(p)
	if n > 0 {
		s.l.reqRead = s.l.now()
		s.l.reqPending = true
	}
	return n, err
}

func (s serverEnd) Write(p []byte) (int, error) {
	if l := s.l; l.reqPending {
		l.serverSpans = append(l.serverSpans, span{
			txn: l.txn.Load(), kind: kindServer, typ: -1, start: l.reqRead, end: l.now()})
		l.reqPending = false
	}
	return s.Conn.Write(p)
}

// tcpPair opens a loopback TCP connection and returns both ends.
func tcpPair() (client, server net.Conn, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		ch <- accepted{c, err}
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	a := <-ch
	if err != nil || a.err != nil {
		if client != nil {
			client.Close()
		}
		if a.c != nil {
			a.c.Close()
		}
		if err == nil {
			err = a.err
		}
		return nil, nil, err
	}
	return client, a.c, nil
}
