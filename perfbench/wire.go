package main

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"
)

// pipeStats is what one pipelined connection observed.
type pipeStats struct {
	sent, replies int
}

// requestLine renders a request word as a text-protocol command.
func requestLine(w uint64) string {
	write, key, value := wordParts(w)
	if write {
		return fmt.Sprintf("put %d %d\n", key, value)
	}
	return fmt.Sprintf("get %d\n", key)
}

// parseReply returns the reply word of a VALUE or STORED line, and
// ok false for an ERR line (a request the server failed).
func parseReply(line string) (v uint64, ok bool, err error) {
	f := strings.Fields(line)
	switch {
	case len(f) > 0 && f[0] == "ERR":
		return 0, false, nil
	case len(f) != 2 || (f[0] != "VALUE" && f[0] != "STORED"):
		return 0, false, fmt.Errorf("unexpected reply %q", strings.TrimSpace(line))
	}
	v, err = strconv.ParseUint(f[1], 0, 64)
	return v, err == nil, err
}

type pending struct {
	word uint64
	sent time.Time
}

// runPipelined drives one connection as a closed loop with exactly
// window requests outstanding: every reply frees one slot, and the
// freed slots are refilled with next() words in a single write. Replies
// arrive in request order, so each is matched to the oldest pending
// request and handed to check with its word (ok is false when the
// server answered ERR). It stops sending at deadline, waits for the
// outstanding replies, and returns. An I/O error or a reply that cannot
// be parsed ends the run with an error.
func runPipelined(conn net.Conn, window int, deadline time.Time,
	next func() uint64, check func(word, reply uint64, ok bool, lat time.Duration)) (pipeStats, error) {
	var st pipeStats
	free := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		free <- struct{}{}
	}
	// Sized to the window: a slot is taken before its request is
	// queued here, so sends never block.
	inflight := make(chan pending, window)
	readErr := make(chan error, 1)

	go func() {
		r := bufio.NewReader(conn)
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				readErr <- err
				return
			}
			p := <-inflight
			now := time.Now()
			v, ok, err := parseReply(line)
			if err != nil {
				readErr <- err
				return
			}
			check(p.word, v, ok, now.Sub(p.sent))
			st.replies++
			free <- struct{}{}
		}
	}()

	w := bufio.NewWriter(conn)
	var err error
	readerDone := false
	for err == nil && time.Now().Before(deadline) {
		// Wait for one free slot, then take every other free one too.
		select {
		case <-free:
		case err = <-readErr:
			readerDone = true
			continue
		}
		n := 1
		for len(free) > 0 {
			<-free // only this goroutine takes slots
			n++
		}
		for i := 0; i < n; i++ {
			word := next()
			inflight <- pending{word: word, sent: time.Now()}
			w.WriteString(requestLine(word))
		}
		st.sent += n
		err = w.Flush()
	}
	// Drain: every slot comes back once every reply has been read.
	for i := 0; i < window && err == nil; i++ {
		select {
		case <-free:
		case err = <-readErr:
			readerDone = true
		}
	}
	conn.Close()
	if !readerDone {
		// The reader now fails on the closed connection; wait for it so
		// it no longer touches st.
		<-readErr
	}
	return st, err
}
