package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"

	"urllangid/internal/langid"
)

// answer is one classification as the server reported it. url aliases
// the response body on the fast parsing path.
type answer struct {
	url    []byte
	scores [langid.NumLanguages]float64
}

// wireResult is the documented JSON shape of one result, used when the
// fast scanner meets a layout it does not expect.
type wireResult struct {
	URL    string             `json:"url"`
	Scores map[string]float64 `json:"scores"`
	Error  string             `json:"error"`
}

func fromWire(w wireResult) (answer, error) {
	if w.Error != "" {
		return answer{}, fmt.Errorf("server reported: %s", w.Error)
	}
	var a answer
	a.url = []byte(w.URL)
	if len(w.Scores) != langid.NumLanguages {
		return a, fmt.Errorf("result for %q has %d scores", w.URL, len(w.Scores))
	}
	for li := 0; li < langid.NumLanguages; li++ {
		s, ok := w.Scores[langid.Language(li).Code()]
		if !ok {
			return a, fmt.Errorf("result for %q lacks a %s score", w.URL, langid.Language(li).Code())
		}
		a.scores[li] = s
	}
	return a, nil
}

// parseClassify extracts the answers of a /v1/classify response body,
// appending to dst[:0].
func parseClassify(body []byte, dst []answer) ([]answer, error) {
	if out, ok := scanClassify(body, dst[:0]); ok {
		return out, nil
	}
	var resp struct {
		Results []wireResult `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decoding classify response: %w", err)
	}
	out := dst[:0]
	for _, w := range resp.Results {
		a, err := fromWire(w)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// parseStream extracts the answers of a /v1/stream response body, one
// NDJSON line each, appending to dst[:0].
func parseStream(body []byte, dst []answer) ([]answer, error) {
	out := dst[:0]
	for len(body) > 0 {
		i := bytes.IndexByte(body, '\n')
		if i < 0 {
			return nil, errors.New("stream response ends without a newline")
		}
		ln := body[:i]
		body = body[i+1:]
		a, rest, ok := scanResult(ln)
		if !ok || len(rest) != 0 {
			var w wireResult
			if err := json.Unmarshal(ln, &w); err != nil {
				return nil, fmt.Errorf("decoding stream line: %w", err)
			}
			var err error
			if a, err = fromWire(w); err != nil {
				return nil, err
			}
		}
		out = append(out, a)
	}
	return out, nil
}

// scanClassify reads the classify layout the server writes today
// without reflection; ok is false on anything else, and the caller then
// falls back to encoding/json.
func scanClassify(body []byte, out []answer) ([]answer, bool) {
	i := bytes.Index(body, []byte(`"results":[`))
	if i < 0 {
		return nil, false
	}
	b := body[i+len(`"results":[`):]
	if len(b) > 0 && b[0] == ']' {
		return out, true
	}
	for {
		a, rest, ok := scanResult(b)
		if !ok || len(rest) == 0 {
			return nil, false
		}
		out = append(out, a)
		switch rest[0] {
		case ',':
			b = rest[1:]
		case ']':
			return out, true
		default:
			return nil, false
		}
	}
}

// scanResult reads one result object laid out as
// {"url":"…","languages":[…],"scores":{"de":…,"en":…,"es":…,"fr":…,"it":…}[,"cached":true]}
// and returns the bytes after it.
func scanResult(b []byte) (a answer, rest []byte, ok bool) {
	const urlKey = `{"url":"`
	if !bytes.HasPrefix(b, []byte(urlKey)) {
		return a, nil, false
	}
	b = b[len(urlKey):]
	end := bytes.IndexByte(b, '"')
	if end < 0 || bytes.IndexByte(b[:end], '\\') >= 0 {
		return a, nil, false
	}
	a.url = b[:end]
	b = b[end+1:]
	const scoresKey = `"scores":{`
	i := bytes.Index(b, []byte(scoresKey))
	if i < 0 {
		return a, nil, false
	}
	b = b[i+len(scoresKey):]
	var seen [langid.NumLanguages]bool
	for k := 0; k < langid.NumLanguages; k++ {
		if len(b) < 5 || b[0] != '"' || b[3] != '"' || b[4] != ':' {
			return a, nil, false
		}
		li, known := codeLang(b[1], b[2])
		if !known || seen[li] {
			return a, nil, false
		}
		seen[li] = true
		b = b[5:]
		n := 0
		for n < len(b) && b[n] != ',' && b[n] != '}' {
			n++
		}
		f, err := strconv.ParseFloat(string(b[:n]), 64)
		if err != nil || n == len(b) {
			return a, nil, false
		}
		a.scores[li] = f
		sep := b[n]
		b = b[n+1:]
		if (sep == '}') != (k == langid.NumLanguages-1) {
			return a, nil, false
		}
	}
	if cached := []byte(`,"cached":true`); bytes.HasPrefix(b, cached) {
		b = b[len(cached):]
	}
	if len(b) == 0 || b[0] != '}' {
		return a, nil, false
	}
	return a, b[1:], true
}

// codeLang maps a two-letter ISO code onto its language.
func codeLang(c0, c1 byte) (langid.Language, bool) {
	for li := 0; li < langid.NumLanguages; li++ {
		code := langid.Language(li).Code()
		if code[0] == c0 && code[1] == c1 {
			return langid.Language(li), true
		}
	}
	return 0, false
}

// sampleEvery picks the answers whose scores are compared bit for bit
// with the in-process reference: every sampleEvery-th URL of a
// sequence, a fixed sample for a given seed.
const sampleEvery = 16

// tally accumulates a phase's correctness: answers whose top-1 matches
// the label, and answers compared against the reference.
type tally struct {
	urls    int64
	correct int64
	sampled int64
}

func (t *tally) add(o tally) {
	t.urls += o.urls
	t.correct += o.correct
	t.sampled += o.sampled
}

// verify checks one response against its request: one answer per URL,
// in input order, and — at sampled positions — scores bit-identical to
// ref. It counts answers whose top-1 language matches the label.
func verify(answers []answer, urls []string, labels []langid.Language, sampled []bool, ref func(i int) [langid.NumLanguages]float64) (tally, error) {
	if len(answers) != len(urls) {
		return tally{}, fmt.Errorf("%d answers for %d URLs", len(answers), len(urls))
	}
	var t tally
	for i, a := range answers {
		if string(a.url) != urls[i] {
			return t, fmt.Errorf("answer %d is for %q, want %q", i, a.url, urls[i])
		}
		if err := t.judge(urls[i], a.scores, labels[i], sampled[i], func() [langid.NumLanguages]float64 { return ref(i) }); err != nil {
			return t, err
		}
	}
	return t, nil
}

// judge counts one answer: whether its top-1 language is the label and,
// when sampled, whether its scores are bit-identical to ref's.
func (t *tally) judge(url string, scores [langid.NumLanguages]float64, label langid.Language, sampled bool, ref func() [langid.NumLanguages]float64) error {
	t.urls++
	if best, _, _ := langid.BestFromScores(scores); best == label {
		t.correct++
	}
	if !sampled {
		return nil
	}
	want := ref()
	for li := range want {
		if math.Float64bits(want[li]) != math.Float64bits(scores[li]) {
			return fmt.Errorf("answer for %q: %s score %v, in-process %v",
				url, langid.Language(li).Code(), scores[li], want[li])
		}
	}
	t.sampled++
	return nil
}
