package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"

	"bwc"
	apiv1 "bwc/api/v1"
)

// answer is the part of a response the output check compares: the
// fields the in-process facade can reproduce exactly for the same body.
// Code is the api/v1 error code for an error response, empty on success.
type answer struct {
	Code       apiv1.ErrorCode
	Throughput string // submit, simulate; churn: the baseline rate
	Visited    int    // submit
	Completed  int    // simulate
	Passed     int    // simulate (analyze: true), analyze
	Failed     int
	Skipped    int
	Final      string // adaptive, churn
	Healed     bool   // adaptive, churn
	Collapsed  bool   // churn
}

// paperThroughput is the optimal rate of the Section-8 tree.
const paperThroughput = "10/9"

// decodeAnswer extracts the compared fields from a daemon response.
func decodeAnswer(route string, status int, body []byte) (answer, error) {
	if status/100 != 2 {
		var env apiv1.Envelope
		if err := json.Unmarshal(body, &env); err != nil || env.Error == nil {
			return answer{}, fmt.Errorf("HTTP %d without an api/v1 error envelope", status)
		}
		return answer{Code: env.Error.Code}, nil
	}
	var a answer
	switch route {
	case routeSubmit:
		var r apiv1.SubmitResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return a, err
		}
		a.Throughput, a.Visited = r.Throughput, r.Visited
	case routeSimulate:
		var r apiv1.SimulateResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return a, err
		}
		a.Throughput, a.Completed = r.Throughput, r.Completed
		if r.Report != nil {
			a.Passed, a.Failed, a.Skipped = r.Report.Passed, r.Report.Failed, r.Report.Skipped
		}
	case routeAnalyze:
		var r apiv1.AnalyzeResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return a, err
		}
		a.Passed, a.Failed, a.Skipped = r.Report.Passed, r.Report.Failed, r.Report.Skipped
	case routeAdaptive:
		var r apiv1.AdaptiveResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return a, err
		}
		a.Final, a.Healed = r.FinalThroughput, r.Healed
	case routeChurn:
		var r apiv1.ChurnResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return a, err
		}
		a.Throughput, a.Final, a.Healed, a.Collapsed = r.Baseline, r.Final, r.Healed, r.Collapsed
	}
	return a, nil
}

// oracle computes the facade's answers in-process, keeping one
// bwc.Session per platform as the daemon keeps one per tenant, so a
// platform's schedule is built once however many bodies name it.
type oracle struct {
	sessions map[string]*bwc.Session
}

func (o *oracle) session(t *bwc.Tree) *bwc.Session {
	fp := bwc.PlatformFingerprint(t)
	s, ok := o.sessions[fp]
	if !ok {
		s = bwc.NewSession()
		o.sessions[fp] = s
	}
	return s
}

// answerAll returns the facade's answer to every distinct body in reqs,
// computed before the daemon starts with one worker per CPU. All bodies
// naming one platform go to the same worker, so each worker's sessions
// see that platform's requests in plan order, as the daemon's tenant
// does.
func answerAll(reqs []request) (map[string]answer, error) {
	workers := runtime.NumCPU()
	parts := make([][]request, workers)
	seen := map[string]bool{}
	for _, r := range reqs {
		if seen[string(r.Body)] {
			continue
		}
		seen[string(r.Body)] = true
		var body struct {
			Platform string `json:"platform"`
		}
		if err := json.Unmarshal(r.Body, &body); err != nil {
			return nil, err
		}
		h := fnv.New32a()
		h.Write([]byte(body.Platform))
		i := int(h.Sum32() % uint32(workers))
		parts[i] = append(parts[i], r)
	}
	results := make([]map[string]answer, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := &oracle{sessions: map[string]*bwc.Session{}}
			results[i] = map[string]answer{}
			for _, r := range parts[i] {
				a, err := o.compute(r)
				if err != nil {
					errs[i] = fmt.Errorf("oracle %s: %w", r.Route, err)
					return
				}
				results[i][string(r.Body)] = a
			}
		}(i)
	}
	wg.Wait()
	all := map[string]answer{}
	for i := range results {
		if errs[i] != nil {
			return nil, errs[i]
		}
		for k, v := range results[i] {
			all[k] = v
		}
	}
	return all, nil
}

func failed(err error) answer { return answer{Code: apiv1.CodeOf(err)} }

func platformOf(text, uniform string) (*bwc.Tree, error) {
	t, err := bwc.ParsePlatformString(text)
	if err != nil || uniform == "" {
		return t, err
	}
	d, err := bwc.ParseRat(uniform)
	if err != nil {
		return nil, err
	}
	return bwc.PlatformWithUniformResultReturn(t, d)
}

func (o *oracle) compute(r request) (answer, error) {
	switch r.Route {
	case routeSubmit:
		var req apiv1.SubmitRequest
		if err := json.Unmarshal(r.Body, &req); err != nil {
			return answer{}, err
		}
		t, err := platformOf(req.Platform, req.UniformReturn)
		if err != nil {
			return failed(err), nil
		}
		res := bwc.Solve(t)
		return answer{Throughput: res.Throughput.String(), Visited: res.VisitedCount}, nil
	case routeSimulate:
		var req apiv1.SimulateRequest
		if err := json.Unmarshal(r.Body, &req); err != nil {
			return answer{}, err
		}
		t, err := platformOf(req.Platform, req.UniformReturn)
		if err != nil {
			return failed(err), nil
		}
		run, err := o.session(t).Simulate(t, bwc.WithTasks(req.Tasks), bwc.WithObserver(bwc.NewObserver()))
		if err != nil {
			return failed(err), nil
		}
		a := answer{Throughput: run.Stats.Throughput.String(), Completed: run.Stats.Completed}
		if req.Analyze {
			rep := bwc.AnalyzeRun(run)
			a.Passed, a.Failed, a.Skipped = rep.Passed, rep.Failed, rep.Skipped
		}
		return a, nil
	case routeAnalyze:
		var req apiv1.AnalyzeRequest
		if err := json.Unmarshal(r.Body, &req); err != nil {
			return answer{}, err
		}
		t, err := platformOf(req.Platform, "")
		if err != nil {
			return failed(err), nil
		}
		stop, err := bwc.ParseRat(req.Stop)
		if err != nil {
			return answer{}, err
		}
		rep, err := o.session(t).Analyze(t, bwc.WithStop(stop))
		if err != nil {
			return failed(err), nil
		}
		return answer{Passed: rep.Passed, Failed: rep.Failed, Skipped: rep.Skipped}, nil
	case routeAdaptive:
		var req apiv1.AdaptiveRequest
		if err := json.Unmarshal(r.Body, &req); err != nil {
			return answer{}, err
		}
		t, err := platformOf(req.Platform, "")
		if err != nil {
			return failed(err), nil
		}
		opts, err := adaptiveOptions(req)
		if err != nil {
			return answer{}, err
		}
		sess := o.session(t)
		rep, err := sess.SimulateAdaptive(t, opts...)
		if err != nil {
			return failed(err), nil
		}
		final := sess.Solve(t).Throughput
		if n := len(rep.Adaptations); n > 0 {
			final = rep.Adaptations[n-1].Throughput
		}
		return answer{Final: final.String(), Healed: rep.Healed}, nil
	case routeChurn:
		var req apiv1.ChurnRequest
		if err := json.Unmarshal(r.Body, &req); err != nil {
			return answer{}, err
		}
		t, err := platformOf(req.Platform, "")
		if err != nil {
			return failed(err), nil
		}
		dur, err := bwc.ParseRat(req.Duration)
		if err != nil {
			return answer{}, err
		}
		rep, err := o.session(t).SimulateChurn(t, bwc.WithChurn(bwc.ChurnConfig{Seed: req.Seed}), bwc.WithStop(dur))
		if err != nil {
			return failed(err), nil
		}
		return answer{Throughput: rep.Baseline.String(), Final: rep.Final.String(), Healed: rep.Healed, Collapsed: rep.Collapsed}, nil
	}
	return answer{}, fmt.Errorf("unknown route %q", r.Route)
}

// adaptiveOptions compiles an adaptive request into facade options with
// the fault kinds api/v1 documents.
func adaptiveOptions(req apiv1.AdaptiveRequest) ([]bwc.Option, error) {
	stop, err := bwc.ParseRat(req.Stop)
	if err != nil {
		return nil, err
	}
	var faults []bwc.Fault
	for _, f := range req.Faults {
		at, err := bwc.ParseRat(f.At)
		if err != nil {
			return nil, err
		}
		var val bwc.Rational
		if f.Value != "" {
			if val, err = bwc.ParseRat(f.Value); err != nil {
				return nil, err
			}
		}
		switch f.Kind {
		case "degrade-link":
			faults = append(faults, bwc.DegradeLink(at, f.Node, val))
		case "slow-node":
			faults = append(faults, bwc.SlowNode(at, f.Node, val))
		case "restore-link":
			faults = append(faults, bwc.RestoreLink(at, f.Node))
		case "restore-node":
			faults = append(faults, bwc.RestoreNode(at, f.Node))
		default:
			return nil, fmt.Errorf("fault kind %q", f.Kind)
		}
	}
	return []bwc.Option{bwc.WithStop(stop), bwc.WithFaults(faults...)}, nil
}

// check compares one daemon response with the facade's answer. A typed
// error the facade reproduces for the same body is a refusal, not a
// failure; anything else that differs is a failure.
func check(r request, got, want answer) (refused bool, err error) {
	if got != want {
		return false, fmt.Errorf("%s: daemon answered %+v, facade %+v", r.Route, got, want)
	}
	if got.Code != "" {
		return true, nil
	}
	if r.Pin && got.Throughput != "" && got.Throughput != paperThroughput {
		return false, fmt.Errorf("%s: Section-8 tree throughput %s, want %s", r.Route, got.Throughput, paperThroughput)
	}
	return false, nil
}
