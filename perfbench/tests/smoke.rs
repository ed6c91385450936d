//! Runs `perf_baseline --smoke` on every workload `BENCHMARK.json`
//! declares, in both passes, and checks the result line: correct, every
//! declared metric present with its declared unit and a finite value.
//! A renamed span, counter or metric fails here instead of reporting a
//! silent zero.

use std::process::Command;

/// Just enough JSON for `BENCHMARK.json` and the result line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing input after JSON value");
        v
    }

    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected a string, found {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("expected an array, found {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        self.ws();
        let ok = self.s[self.i..].starts_with(token.as_bytes());
        if ok {
            self.i += token.len();
        }
        ok
    }

    fn string(&mut self) -> String {
        assert!(self.eat("\""), "expected a string at byte {}", self.i);
        let mut out = String::new();
        loop {
            match self.s[self.i] {
                b'"' => break,
                b'\\' => {
                    self.i += 1;
                    out.push(match self.s[self.i] {
                        b'n' => '\n',
                        b't' => '\t',
                        c => char::from(c),
                    });
                }
                c => out.push(char::from(c)),
            }
            self.i += 1;
        }
        self.i += 1;
        out
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                if !self.eat("}") {
                    loop {
                        let key = self.string();
                        assert!(self.eat(":"), "expected ':' at byte {}", self.i);
                        fields.push((key, self.value()));
                        if self.eat("}") {
                            break;
                        }
                        assert!(self.eat(","), "expected ',' at byte {}", self.i);
                    }
                }
                Json::Obj(fields)
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                if !self.eat("]") {
                    loop {
                        items.push(self.value());
                        if self.eat("]") {
                            break;
                        }
                        assert!(self.eat(","), "expected ',' at byte {}", self.i);
                    }
                }
                Json::Arr(items)
            }
            b'"' => Json::Str(self.string()),
            b't' | b'f' | b'n' => [
                ("true", Json::Bool(true)),
                ("false", Json::Bool(false)),
                ("null", Json::Null),
            ]
            .into_iter()
            .find(|(text, _)| self.eat(text))
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("bad literal at byte {}", self.i)),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ASCII number");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

/// Runs one smoke pass and returns its parsed result line.
fn smoke(workload: &str, trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perf_baseline"))
        .args(["--workload", workload, "--trace", trace, "--smoke"])
        .output()
        .expect("perf_baseline runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("digest "), "{stdout}");
    Json::parse(stdout.lines().last().expect("a result line"))
}

#[test]
fn every_declared_metric_is_reported_for_every_workload() {
    let bench = benchmark_json();
    let workloads = bench.get("workloads").expect("workloads").arr();
    assert_eq!(workloads.len(), 4);
    for workload in workloads {
        let name = workload.get("name").expect("workload name").str();
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = smoke(name, trace);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{name}");
            assert_eq!(result.get("failed"), Some(&Json::Num(0.0)), "{name}");
            assert!(matches!(result.get("attempted"), Some(Json::Num(n)) if *n >= 1.0));
            let metrics = result.get("metrics").expect("metrics");
            let declared = bench.get(section).expect(section).arr();
            let Json::Obj(reported) = metrics else {
                panic!("metrics is not an object")
            };
            assert_eq!(reported.len(), declared.len(), "{name} {section}");
            for metric in declared {
                let id = metric.get("name").expect("metric name").str();
                let got = metrics
                    .get(id)
                    .unwrap_or_else(|| panic!("{name}: {id} missing"));
                assert_eq!(
                    got.get("unit").map(Json::str),
                    Some(metric.get("unit").expect("unit").str()),
                    "{name}: {id}"
                );
                assert!(
                    matches!(got.get("value"), Some(Json::Num(v)) if v.is_finite()),
                    "{name}: {id} = {got:?}"
                );
            }
        }
    }
}
