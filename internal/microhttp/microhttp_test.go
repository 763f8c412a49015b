package microhttp

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func TestRequestRoundTrip(t *testing.T) {
	req := &Request{
		Method:  "GET",
		Path:    "/items/42?bid=1",
		Headers: map[string]string{"Host": "rubis", "X-Tenant": "acme"},
		Body:    []byte("payload"),
	}
	var buf bytes.Buffer
	if err := WriteRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRequest(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Method != "GET" || got.Path != req.Path {
		t.Fatalf("request line: %+v", got)
	}
	if got.Header("host") != "rubis" || got.Header("x-tenant") != "acme" {
		t.Fatalf("headers: %+v", got.Headers)
	}
	if !bytes.Equal(got.Body, req.Body) {
		t.Fatalf("body: %q", got.Body)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resp := &Response{
		Status:  200,
		Headers: map[string]string{"Content-Type": "text/html", "Connection": "close"},
		Body:    bytes.Repeat([]byte("x"), 5000),
	}
	var buf bytes.Buffer
	if err := WriteResponse(&buf, resp); err != nil {
		t.Fatal(err)
	}
	got, err := ReadResponse(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != 200 || !got.WantsClose() || len(got.Body) != 5000 {
		t.Fatalf("response: status=%d close=%v len=%d", got.Status, got.WantsClose(), len(got.Body))
	}
}

func TestEmptyBodyAndPipelinedMessages(t *testing.T) {
	var buf bytes.Buffer
	WriteRequest(&buf, &Request{Method: "GET", Path: "/a"})
	WriteRequest(&buf, &Request{Method: "GET", Path: "/b"})
	br := bufio.NewReader(&buf)
	r1, err := ReadRequest(br)
	if err != nil || r1.Path != "/a" || len(r1.Body) != 0 {
		t.Fatalf("first: %+v %v", r1, err)
	}
	r2, err := ReadRequest(br)
	if err != nil || r2.Path != "/b" {
		t.Fatalf("second: %+v %v", r2, err)
	}
}

func TestMalformedInputs(t *testing.T) {
	cases := []string{
		"GARBAGE\r\n\r\n",
		"GET /\r\n\r\n", // missing version
		"GET / HTTP/1.1\r\nNoColonHeader\r\n\r\n",      // bad header
		"HTTP/1.1 banana OK\r\n\r\n",                   // bad status
		"GET / HTTP/1.1\r\nContent-Length: -5\r\n\r\n", // negative length
	}
	for _, c := range cases {
		br := bufio.NewReader(strings.NewReader(c))
		if strings.HasPrefix(c, "HTTP/") {
			if _, err := ReadResponse(br); err == nil {
				t.Errorf("accepted response %q", c)
			}
		} else if _, err := ReadRequest(br); err == nil {
			t.Errorf("accepted request %q", c)
		}
	}
}

func TestTruncatedBody(t *testing.T) {
	raw := "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nshort"
	if _, err := ReadResponse(bufio.NewReader(strings.NewReader(raw))); err == nil {
		t.Fatal("truncated body accepted")
	}
}

func TestOversizeBodyRejected(t *testing.T) {
	raw := "HTTP/1.1 200 OK\r\nContent-Length: 999999999\r\n\r\n"
	if _, err := ReadResponse(bufio.NewReader(strings.NewReader(raw))); err != ErrTooLarge {
		t.Fatal("oversize body not rejected")
	}
}

func TestRoundTripHelper(t *testing.T) {
	// Fake server: read request from a, write response to b.
	var a2b, b2a bytes.Buffer
	type rw struct {
		*bytes.Buffer
		w *bytes.Buffer
	}
	// Serve manually.
	WriteResponse(&b2a, &Response{Status: 404})
	client := struct {
		*bytes.Buffer
	}{&a2b}
	_ = client
	resp, err := RoundTrip(&a2b, bufio.NewReader(&b2a), &Request{Method: "GET", Path: "/missing"})
	if err != nil || resp.Status != 404 {
		t.Fatalf("roundtrip: %+v %v", resp, err)
	}
	// The request actually went out.
	req, err := ReadRequest(bufio.NewReader(&a2b))
	if err != nil || req.Path != "/missing" {
		t.Fatalf("server side: %+v %v", req, err)
	}
}

// Property: any request with printable method/path and arbitrary body
// round-trips.
func TestRequestProperty(t *testing.T) {
	f := func(body []byte, pathSeed uint32) bool {
		if len(body) > 4096 {
			body = body[:4096]
		}
		req := &Request{
			Method:  "POST",
			Path:    "/p/" + itoa(pathSeed),
			Headers: map[string]string{"Host": "h"},
			Body:    body,
		}
		var buf bytes.Buffer
		if err := WriteRequest(&buf, req); err != nil {
			return false
		}
		got, err := ReadRequest(bufio.NewReader(&buf))
		if err != nil {
			return false
		}
		return got.Path == req.Path && bytes.Equal(got.Body, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func itoa(v uint32) string {
	const digits = "0123456789"
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{digits[v%10]}, b...)
		v /= 10
	}
	return string(b)
}

// TestWarmMessagesAllocateNothing: reading a response into a Response
// whose body array is large enough allocates no body, and nothing else
// when the header names and values repeat; the same holds for a request,
// and for writing either again. A body read into a warm message lands in
// the array it held before.
func TestWarmMessagesAllocateNothing(t *testing.T) {
	var rawResp, rawReq bytes.Buffer
	WriteResponse(&rawResp, &Response{Status: 200, Headers: map[string]string{"Content-Type": "text/html"}, Body: make([]byte, 20<<10)})
	WriteRequest(&rawReq, &Request{Method: "GET", Path: "/item/7", Headers: map[string]string{"Host": "rubis"}})
	rd := bytes.NewReader(nil)
	br := bufio.NewReader(rd)
	var resp Response
	var req Request
	read := func() {
		rd.Reset(rawResp.Bytes())
		br.Reset(rd)
		if err := ReadResponseInto(br, &resp); err != nil {
			t.Fatal(err)
		}
		rd.Reset(rawReq.Bytes())
		br.Reset(rd)
		if err := ReadRequestInto(br, &req); err != nil {
			t.Fatal(err)
		}
	}
	read()
	body := &resp.Body[0]
	if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
		t.Errorf("reading into warm messages allocated %.1f times, want 0", allocs)
	}
	if &resp.Body[0] != body || len(resp.Body) != 20<<10 || req.Path != "/item/7" || resp.Header("content-type") != "text/html" {
		t.Fatalf("warm read: body moved %v, %d B, path %q, headers %v", &resp.Body[0] != body, len(resp.Body), req.Path, resp.Headers)
	}
	write := func() {
		if err := WriteResponse(io.Discard, &resp); err != nil {
			t.Fatal(err)
		}
		if err := WriteRequest(io.Discard, &req); err != nil {
			t.Fatal(err)
		}
	}
	write()
	if allocs := testing.AllocsPerRun(100, write); allocs != 0 {
		t.Errorf("writing warm messages allocated %.1f times, want 0", allocs)
	}
}
