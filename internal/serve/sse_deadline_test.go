//go:build goexperiment.synctest

package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/synctest"
	"time"

	"graphkeys"
)

// pipeListener is a net.Listener whose connections are net.Pipe ends,
// so a server and its clients run inside one synctest bubble.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// dial returns the client end of a new connection to the server.
func (l *pipeListener) dial() (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// TestSSEWriteDeadlineDropsStalledSubscriber runs the server on fake
// time beside a subscriber that sends its request and never reads, and
// a subscriber that reads. The stalled one's handler stays until its
// write deadline passes and returns then, which unsubscribes it; the
// reading one gets every event, one of them after an idle stretch
// longer than the deadline. Run it with
// GOEXPERIMENT=synctest go test ./internal/serve -run TestSSEWriteDeadline.
func TestSSEWriteDeadlineDropsStalledSubscriber(t *testing.T) {
	synctest.Run(func() {
		m, err := graphkeys.NewMatcher(graphkeys.NewGraph(), testKeySet(t), graphkeys.Options{})
		if err != nil {
			t.Error(err)
			return
		}
		s := New(m, Options{EventRing: 64})
		returned := make(chan time.Time, 2) // when each of the two /subscribe handlers returned
		ln := newPipeListener()
		hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			s.ServeHTTP(w, r)
			if r.URL.Path == "/subscribe" {
				returned <- time.Now()
			}
		})}
		go hs.Serve(ln)
		tr := &http.Transport{DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) { return ln.dial() }}
		client := &http.Client{Transport: tr}
		defer func() {
			hs.Close()
			tr.CloseIdleConnections()
		}()
		subscribers := func() int {
			var st debugState
			resp, err := client.Get("http://pipe/debug/state")
			if err != nil {
				t.Error(err)
				return -1
			}
			defer resp.Body.Close()
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Error(err)
				return -1
			}
			return st.Subscribers
		}
		merge := func(i int) {
			a, b := graphkeys.EntityID(fmt.Sprintf("a%d", i)), graphkeys.EntityID(fmt.Sprintf("b%d", i))
			d := graphkeys.NewDelta().AddEntity(a, "person").AddEntity(b, "person").
				AddValueTriple(a, "email", fmt.Sprint(i)).AddValueTriple(b, "email", fmt.Sprint(i))
			if _, _, err := m.Apply(d); err != nil {
				t.Error(err)
			}
		}

		start := time.Now()
		stalled, err := ln.dial()
		if err != nil {
			t.Error(err)
			return
		}
		defer stalled.Close()
		if _, err := io.WriteString(stalled, "GET /subscribe HTTP/1.1\r\nHost: pipe\r\n\r\n"); err != nil {
			t.Error(err)
			return
		}
		resp, err := client.Get("http://pipe/subscribe")
		if err != nil {
			t.Error(err)
			return
		}
		var got []uint64
		read := make(chan struct{})
		go func() {
			defer close(read)
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				if id, ok := strings.CutPrefix(sc.Text(), "id: "); ok {
					seq, _ := strconv.ParseUint(id, 10, 64)
					got = append(got, seq)
				}
			}
		}()
		for i := 1; i <= 3; i++ {
			merge(i)
		}

		time.Sleep(sseWriteTimeout - time.Second)
		synctest.Wait()
		if n := subscribers(); n != 2 || len(returned) != 0 {
			t.Errorf("before the deadline: %d subscribers, %d handlers returned; want 2, 0", n, len(returned))
		}
		time.Sleep(2 * time.Second)
		synctest.Wait()
		select {
		case at := <-returned:
			if at.Sub(start) != sseWriteTimeout {
				t.Errorf("the stalled subscriber's handler returned after %v, want %v", at.Sub(start), sseWriteTimeout)
			}
		default:
			t.Error("the stalled subscriber's handler still runs past its write deadline")
		}
		if n := subscribers(); n != 1 {
			t.Errorf("after the deadline: %d subscribers, want the reading one alone", n)
		}
		merge(4)
		synctest.Wait()
		resp.Body.Close()
		<-read
		synctest.Wait()
		if n := subscribers(); n != 0 {
			t.Errorf("after both left: %d subscribers, want 0", n)
		}
		if want := []uint64{1, 2, 3, 4}; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("the reading subscriber got events %v, want %v", got, want)
		}
	})
}
