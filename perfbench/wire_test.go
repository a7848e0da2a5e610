package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/workloads"
)

// windowServer is a text-protocol stand-in that answers one request,
// the oldest, each time no request bytes have arrived for a few
// milliseconds. A client that keeps the window full refills the freed
// slot at once, so the server sees exactly window requests outstanding;
// one that sends more is caught, since everything sent is read before
// anything is answered. Replies echo the request word, so order is
// checkable.
func windowServer(conn net.Conn, maxSeen *int) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	var queue []string
	partial := ""
	for {
		conn.SetReadDeadline(time.Now().Add(5 * time.Millisecond))
		line, err := r.ReadString('\n')
		partial += line
		if err == nil {
			queue = append(queue, partial)
			partial = ""
			*maxSeen = max(*maxSeen, len(queue))
			continue
		}
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			return
		}
		if len(queue) == 0 {
			continue
		}
		f := strings.Fields(queue[0])
		queue = queue[1:]
		var key, value uint64
		fmt.Sscan(f[1], &key)
		if f[0] == "put" {
			fmt.Sscan(f[2], &value)
		}
		word := workloads.KVRequestWord(f[0] == "put", key, value)
		if _, err := fmt.Fprintf(conn, "VALUE %#x\n", word); err != nil {
			return
		}
	}
}

func TestPipelinedClientKeepsWindowAndMatchesInOrder(t *testing.T) {
	const window = 16
	client, server := net.Pipe()
	maxSeen := 0
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		windowServer(server, &maxSeen)
	}()

	g := newKVGen(7, 0)
	var sent []uint64
	next := func() uint64 {
		w := g.next()
		sent = append(sent, w)
		return w
	}
	var got []uint64
	mismatched := 0
	check := func(word, reply uint64, ok bool, _ time.Duration) {
		got = append(got, word)
		if !ok || reply != word {
			mismatched++
		}
	}
	st, err := runPipelined(client, window, time.Now().Add(100*time.Millisecond), next, check)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if maxSeen != window {
		t.Errorf("server saw at most %d requests outstanding, want exactly %d", maxSeen, window)
	}
	if st.sent <= window || st.replies != st.sent || len(got) != len(sent) {
		t.Fatalf("sent %d, replies %d, checked %d: want every sent request answered", st.sent, st.replies, len(got))
	}
	for i := range sent {
		if got[i] != sent[i] {
			t.Fatalf("reply %d matched to request %#x, want %#x", i, got[i], sent[i])
		}
	}
	if mismatched != 0 {
		t.Errorf("%d replies did not echo their request", mismatched)
	}
}

func TestPipelinedClientCountsErrReplies(t *testing.T) {
	client, server := net.Pipe()
	go func() {
		defer server.Close()
		r := bufio.NewReader(server)
		for {
			if _, err := r.ReadString('\n'); err != nil {
				return
			}
			if _, err := server.Write([]byte("ERR serve: request deadline exceeded\n")); err != nil {
				return
			}
		}
	}()
	g := newKVGen(1, 0)
	failed := 0
	check := func(_, _ uint64, ok bool, _ time.Duration) {
		if !ok {
			failed++
		}
	}
	st, err := runPipelined(client, 1, time.Now().Add(20*time.Millisecond), g.next, check)
	if err != nil {
		t.Fatal(err)
	}
	if st.replies == 0 || failed != st.replies {
		t.Errorf("%d of %d ERR replies counted as failed", failed, st.replies)
	}
}
