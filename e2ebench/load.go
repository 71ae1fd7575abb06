package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// binContentType is the media type that negotiates the binary framing.
const binContentType = "application/x-iqs-bin"

// client is one keep-alive HTTP/1.1 connection driven synchronously:
// write a request, read its response to the last byte. No transport
// goroutines sit between the loop and the socket.
type client struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	req  []byte
	body bytes.Buffer
}

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

func (c *client) roundTrip(req []byte) (int, []byte, error) {
	if c.conn == nil {
		conn, err := net.Dial("tcp", c.addr)
		if err != nil {
			return 0, nil, err
		}
		c.conn = conn
		c.br = bufio.NewReaderSize(conn, 64<<10)
	}
	if _, err := c.conn.Write(req); err != nil {
		c.close()
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return 0, nil, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		c.close()
		return 0, nil, err
	}
	if resp.Close {
		c.close()
	}
	return resp.StatusCode, c.body.Bytes(), nil
}

// appendRequest renders o as an HTTP/1.1 request.
func appendRequest(b []byte, o op, bin bool) []byte {
	if o.kind == opRead {
		b = append(b, "GET /sample?lo="...)
		b = strconv.AppendInt(b, o.lo, 10)
		b = append(b, "&hi="...)
		b = strconv.AppendInt(b, o.hi, 10)
		b = append(b, "&k="...)
		b = strconv.AppendInt(b, int64(o.k), 10)
		if o.wor {
			b = append(b, "&wor=true"...)
		}
		b = append(b, " HTTP/1.1\r\nHost: bench\r\n"...)
		if bin {
			b = append(b, "Accept: "+binContentType+"\r\n"...)
		}
		return append(b, "\r\n"...)
	}
	path, body := writeBody(o)
	b = append(b, "POST "...)
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	b = append(b, "\r\n\r\n"...)
	return append(b, body...)
}

// writeBody returns the endpoint and JSON body of a write.
func writeBody(o op) (string, []byte) {
	var b []byte
	b = append(b, `{"value":`...)
	b = strconv.AppendFloat(b, o.ins.value, 'f', -1, 64)
	if o.kind == opDelete {
		return "/delete", append(b, '}')
	}
	b = append(b, `,"weight":`...)
	b = strconv.AppendFloat(b, o.ins.weight, 'f', -1, 64)
	return "/insert", append(b, '}')
}

// decodeSamples decodes a /sample answer in either framing. It is
// written from the wire format's documentation, not shared with the
// server's codec.
func decodeSamples(body []byte, bin bool, dst []float64) ([]float64, error) {
	if !bin {
		var r struct {
			Samples []float64 `json:"samples"`
			Count   int       `json:"count"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return dst, fmt.Errorf("decode JSON answer: %w", err)
		}
		if r.Count != len(r.Samples) {
			return dst, fmt.Errorf("JSON answer count %d but %d samples", r.Count, len(r.Samples))
		}
		return append(dst, r.Samples...), nil
	}
	// [u32 payloadLen][u8 kind 0][u32 count][count × f64], little-endian.
	if len(body) < 9 {
		return dst, fmt.Errorf("binary answer of %d bytes", len(body))
	}
	plen := binary.LittleEndian.Uint32(body)
	count := binary.LittleEndian.Uint32(body[5:])
	if body[4] != 0 || int(plen) != len(body)-4 || int(plen) != 5+8*int(count) {
		return dst, fmt.Errorf("malformed binary answer: kind %d, payload %d, count %d, %d bytes",
			body[4], plen, count, len(body))
	}
	for i := 0; i < int(count); i++ {
		dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(body[9+8*i:])))
	}
	return dst, nil
}

// connStats is one connection's outcome over one phase.
type connStats struct {
	attempted, failed, wrong int64
	lats                     []float64       // µs, every operation answered 200
	ends                     []time.Duration // completion times of those operations, since the phase began
	readLatSum               float64         // µs, reads answered 200
	reads                    int64
	firstErr                 string
	acc                      accum
}

func (s *connStats) note(err error) {
	if s.firstErr == "" {
		s.firstErr = err.Error()
	}
}

// loop drives one connection's closed loop until the deadline.
func loop(c *client, g *generator, o *oracle, w workload, start, deadline time.Time, st *connStats) {
	var out, sc []float64
	for time.Now().Before(deadline) {
		q := g.next()
		var win window
		switch q.kind {
		case opRead:
			if o.live != nil {
				win = o.live.begin(q.lo, q.hi)
			}
		case opInsert:
			o.live.beginInsert(q.ins)
		case opDelete:
			o.live.beginDelete(q.ins)
		}
		c.req = appendRequest(c.req[:0], q, w.binary)
		st.attempted++
		t0 := time.Now()
		status, body, err := c.roundTrip(c.req)
		t1 := time.Now()
		lat := float64(t1.Sub(t0).Nanoseconds()) / 1e3
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %.200s", status, body)
		}
		if err != nil {
			st.failed++
			st.note(fmt.Errorf("%v %d..%d: %w", q.kind, q.lo, q.hi, err))
			continue
		}
		st.lats = append(st.lats, lat)
		st.ends = append(st.ends, t1.Sub(start))
		switch q.kind {
		case opInsert:
			o.live.ackInsert(q.ins)
			g.acked(q)
			continue
		case opDelete:
			o.live.ackDelete(q.ins)
			continue
		}
		st.reads++
		st.readLatSum += lat
		if o.live != nil {
			o.live.end(&win)
		}
		out, err = decodeSamples(body, w.binary, out[:0])
		if err == nil {
			err = o.check(q, out, &win, &st.acc, &sc)
		}
		if err != nil {
			st.wrong++
			st.note(fmt.Errorf("read [%d, %d] k=%d wor=%v: %w", q.lo, q.hi, q.k, q.wor, err))
		}
	}
}

func (k opKind) String() string {
	return [...]string{"read", "insert", "delete"}[k]
}

// runPhase runs every connection's loop from start for d and returns
// per-connection stats.
func runPhase(clients []*client, gens []*generator, o *oracle, w workload, start time.Time, d time.Duration) []*connStats {
	stats := make([]*connStats, len(clients))
	var wg sync.WaitGroup
	deadline := start.Add(d)
	for i := range clients {
		stats[i] = &connStats{lats: make([]float64, 0, 1<<16)}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			loop(clients[i], gens[i], o, w, start, deadline, stats[i])
		}(i)
	}
	wg.Wait()
	return stats
}
