package main

import (
	"io"
	"net"
	"testing"
	"time"
)

// nopConn is a net.Conn whose reads fill the buffer and whose writes accept
// everything instantly; the test moves the clock between calls.
type nopConn struct{ net.Conn }

func (nopConn) Read(p []byte) (int, error)  { return len(p), nil }
func (nopConn) Write(p []byte) (int, error) { return len(p), nil }

// TestLinkAccountingScripted drives both ends of a link through two round
// trips on a scripted clock and checks every span exactly.
func TestLinkAccountingScripted(t *testing.T) {
	var now int64
	l := newLink(func() int64 { return now })
	c, s := clientEnd{nopConn{}, l}, serverEnd{nopConn{}, l}
	at := func(t int64) { now = t }
	buf := func(n int) []byte { return make([]byte, n) }

	l.txn.Store(7)
	// Round trip 1: one request write, a two-read request on the server, a
	// two-write response and a two-read response on the client.
	at(100)
	c.Write(buf(10))
	at(130)
	s.Read(buf(4))
	at(140)
	s.Read(buf(6))
	at(500)
	s.Write(buf(20))
	at(520)
	s.Write(buf(5))
	at(560)
	c.Read(buf(20))
	at(570)
	c.Read(buf(5))
	// Round trip 2: a request sent in two writes.
	at(600)
	c.Write(buf(8))
	at(605)
	c.Write(buf(2))
	at(610)
	s.Read(buf(10))
	at(700)
	s.Write(buf(3))
	at(720)
	c.Read(buf(3))
	l.endRT()
	l.txn.Store(0)

	wantRT := []span{
		{txn: 7, kind: kindRT, typ: -1, start: 100, end: 570, out: 10, in: 25},
		{txn: 7, kind: kindRT, typ: -1, start: 600, end: 720, out: 10, in: 3},
	}
	wantServer := []span{
		{txn: 7, kind: kindServer, typ: -1, start: 140, end: 500},
		{txn: 7, kind: kindServer, typ: -1, start: 610, end: 700},
	}
	if !equalSpans(l.rtSpans, wantRT) {
		t.Errorf("rt spans = %+v, want %+v", l.rtSpans, wantRT)
	}
	if !equalSpans(l.serverSpans, wantServer) {
		t.Errorf("server spans = %+v, want %+v", l.serverSpans, wantServer)
	}

	tm := &terminal{link: l, txnSpans: []span{
		{txn: 0, kind: kindTxn, start: 0, end: 90}, // warm-up: excluded
		{txn: 7, kind: kindTxn, start: 50, end: 800},
	}}
	got := sumSpans([]*terminal{tm})
	want := spanTotals{txnNs: 750, rtNs: 590, serverNs: 450, roundTrips: 2, bytesOut: 20, bytesIn: 28}
	if got != want {
		t.Fatalf("totals = %+v, want %+v", got, want)
	}
	client, wire, server := got.txnNs-got.rtNs, got.rtNs-got.serverNs, got.serverNs
	if client != 160 || wire != 140 || server != 450 || client+wire+server != got.txnNs {
		t.Fatalf("client %d + wire %d + server %d ≠ txn %d", client, wire, server, got.txnNs)
	}
}

func equalSpans(a, b []span) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// delayConn sleeps before every write: injected wire latency.
type delayConn struct {
	net.Conn
	d time.Duration
}

func (c delayConn) Write(p []byte) (int, error) {
	time.Sleep(c.d)
	return c.Conn.Write(p)
}

// TestLinkAccountingRealTime runs round trips over a pipe with an injected
// server busy time and wire delay, on the real clock.
func TestLinkAccountingRealTime(t *testing.T) {
	const (
		trips = 3
		busy  = 20 * time.Millisecond
		wire  = 5 * time.Millisecond
		slack = 15 * time.Millisecond
	)
	cp, sp := net.Pipe()
	l := newLink(monotonic())
	client := clientEnd{delayConn{cp, wire}, l}
	server := serverEnd{sp, l}
	done := make(chan struct{})
	go func() {
		defer close(done)
		req := make([]byte, 16)
		for {
			if _, err := io.ReadFull(server, req); err != nil {
				return
			}
			time.Sleep(busy)
			if _, err := server.Write(make([]byte, 32)); err != nil {
				return
			}
		}
	}()
	l.txn.Store(1)
	resp := make([]byte, 32)
	for i := 0; i < trips; i++ {
		if _, err := client.Write(make([]byte, 16)); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(client, resp); err != nil {
			t.Fatal(err)
		}
	}
	l.endRT()
	cp.Close()
	<-done

	if len(l.rtSpans) != trips || len(l.serverSpans) != trips {
		t.Fatalf("%d rt spans, %d server spans, want %d each", len(l.rtSpans), len(l.serverSpans), trips)
	}
	for i := 0; i < trips; i++ {
		rt, srv := time.Duration(l.rtSpans[i].dur()), time.Duration(l.serverSpans[i].dur())
		if srv < busy || srv > busy+slack {
			t.Errorf("trip %d: server busy %v, want %v..%v", i, srv, busy, busy+slack)
		}
		if rt-srv < wire || rt > busy+wire+slack {
			t.Errorf("trip %d: rt %v with server %v, want wire ≥ %v and rt ≤ %v", i, rt, srv, wire, busy+wire+slack)
		}
		if l.rtSpans[i].out != 16 || l.rtSpans[i].in != 32 {
			t.Errorf("trip %d: bytes out %d in %d, want 16 and 32", i, l.rtSpans[i].out, l.rtSpans[i].in)
		}
	}
}
