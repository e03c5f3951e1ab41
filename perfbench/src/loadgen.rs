//! Open-loop load generator: sends request lines at fixed due times
//! regardless of replies, over at most `nproc` connections, each driven
//! by one thread that both sends and receives. Latency is timed from a
//! request's due time, so a stall also charges the requests queued
//! behind it; lateness records how far the sender fell behind.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One request's life as the client saw it.
#[derive(Debug, Clone)]
pub struct Record {
    pub due: Instant,
    pub sent: Instant,
    pub encode: Duration,
    pub received: Option<Instant>,
    pub decode: Duration,
    pub response: Option<scwsc_serve::Response>,
    pub bytes: usize,
}

impl Record {
    /// Milliseconds from due time to the complete response.
    pub fn latency_ms(&self) -> Option<f64> {
        self.received
            .map(|r| r.saturating_duration_since(self.due).as_secs_f64() * 1e3)
    }

    /// Milliseconds the sender was behind the due time.
    pub fn late_ms(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// Connections the generator may use: at most 2 and at most `nproc`.
pub fn max_connections() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Sends `requests[j]` at `start + j * interval` over `streams`
/// (request `j` on stream `j % streams.len()`), one thread per stream,
/// and waits for every response or for `give_up` after the last due
/// time. Returns one record per request, in order.
pub fn run(
    streams: Vec<TcpStream>,
    requests: &[scwsc_serve::Request],
    start: Instant,
    interval: Duration,
    give_up: Duration,
) -> Vec<Record> {
    assert!(
        !streams.is_empty() && streams.len() <= max_connections(),
        "{} connections exceed the generator's limit of {}",
        streams.len(),
        max_connections()
    );
    let conns = streams.len();
    let due = |j: usize| start + interval * j as u32;
    let deadline = due(requests.len()) + give_up;
    let mut per_conn: Vec<Vec<(usize, Record)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(c, stream)| {
                let mine: Vec<usize> = (c..requests.len()).step_by(conns).collect();
                scope.spawn(move || drive(stream, &mine, requests, due, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut out: Vec<(usize, Record)> = per_conn.drain(..).flatten().collect();
    out.sort_by_key(|(j, _)| *j);
    out.into_iter().map(|(_, r)| r).collect()
}

/// One connection's send/receive loop. Replies on one connection come
/// back in request order, so the k-th response line answers the k-th
/// request sent on it.
fn drive(
    mut stream: TcpStream,
    mine: &[usize],
    requests: &[scwsc_serve::Request],
    due: impl Fn(usize) -> Instant,
    deadline: Instant,
) -> Vec<(usize, Record)> {
    let _ = stream.set_nodelay(true);
    let mut records: Vec<(usize, Record)> = Vec::with_capacity(mine.len());
    let mut inbox: Vec<u8> = Vec::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut answered = 0;
    while answered < mine.len() {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        if let Some(&j) = mine.get(records.len()) {
            let when = due(j);
            if now >= when {
                let t0 = Instant::now();
                let mut line = requests[j].to_line();
                line.push('\n');
                let encode = t0.elapsed();
                if stream.write_all(line.as_bytes()).is_err() {
                    break;
                }
                records.push((
                    j,
                    Record {
                        due: when,
                        sent: t0,
                        encode,
                        received: None,
                        decode: Duration::ZERO,
                        response: None,
                        bytes: 0,
                    },
                ));
                continue;
            }
        }
        let wake = mine
            .get(records.len())
            .map_or(deadline, |&j| due(j).min(deadline));
        let wait = wake
            .saturating_duration_since(now)
            .max(Duration::from_micros(50));
        if stream.set_read_timeout(Some(wait)).is_err() {
            break;
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                let received = Instant::now();
                inbox.extend_from_slice(&buf[..n]);
                while let Some(end) = inbox.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = inbox.drain(..=end).collect();
                    let Some((_, record)) = records.get_mut(answered) else {
                        break;
                    };
                    let t0 = Instant::now();
                    let text = String::from_utf8_lossy(&line);
                    record.response = scwsc_serve::Response::parse(text.trim_end()).ok();
                    record.decode = t0.elapsed();
                    record.received = Some(received);
                    record.bytes = line.len();
                    answered += 1;
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => break,
        }
    }
    // Requests never sent before the deadline still count as attempted.
    for &j in &mine[records.len()..] {
        let when = due(j);
        records.push((
            j,
            Record {
                due: when,
                sent: when,
                encode: Duration::ZERO,
                received: None,
                decode: Duration::ZERO,
                response: None,
                bytes: 0,
            },
        ));
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use scwsc_core::solver::Query;
    use scwsc_serve::{Request, Status};
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// A stub server answering every request line at once, except that it
    /// stalls `stall` before answering the request with id `stall_id`.
    fn stub(stall_id: u64, stall: Duration) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            for line in BufReader::new(stream).lines() {
                let Ok(line) = line else { break };
                let request = Request::parse(&line, 0).unwrap();
                if request.id == stall_id {
                    std::thread::sleep(stall);
                }
                let reply = format!("{{\"id\":{},\"status\":\"complete\"}}\n", request.id);
                if writer.write_all(reply.as_bytes()).is_err() {
                    break;
                }
            }
        });
        (addr, handle)
    }

    fn requests(n: u64) -> Vec<Request> {
        (0..n)
            .map(|id| Request::new(id, Query::cwsc(2, 0.5)))
            .collect()
    }

    #[test]
    fn stalled_requests_are_timed_from_their_due_time() {
        let stall = Duration::from_millis(200);
        let interval = Duration::from_millis(10);
        let (addr, server) = stub(3, stall);
        let stream = TcpStream::connect(addr).unwrap();
        let start = Instant::now() + Duration::from_millis(5);
        let records = run(
            vec![stream],
            &requests(30),
            start,
            interval,
            Duration::from_secs(5),
        );
        server.join().unwrap();
        assert_eq!(records.len(), 30);
        for (j, r) in records.iter().enumerate() {
            let resp = r.response.as_ref().expect("every request answered");
            assert_eq!(resp.id, j as u64);
            assert_eq!(resp.status, Status::Complete);
            let latency = r.latency_ms().unwrap();
            if (3..=20).contains(&j) {
                // Queued behind the stall: the wait from its own due time
                // to the end of the stall is charged to it.
                let floor = 200.0 - 10.0 * (j as f64 - 3.0);
                assert!(
                    latency >= floor - 1.0,
                    "request {j}: {latency} ms < {floor} ms"
                );
            }
            // The sender never waits for replies, so it stays on time.
            assert!(
                r.late_ms() < 100.0,
                "request {j} sent {} ms late",
                r.late_ms()
            );
        }
    }

    #[test]
    fn lateness_reflects_a_sender_behind_schedule() {
        let (addr, server) = stub(u64::MAX, Duration::ZERO);
        let stream = TcpStream::connect(addr).unwrap();
        // Due times already 80 ms in the past: the first sends are late.
        let start = Instant::now() - Duration::from_millis(80);
        let records = run(
            vec![stream],
            &requests(5),
            start,
            Duration::from_millis(1),
            Duration::from_secs(5),
        );
        server.join().unwrap();
        let late: Vec<f64> = records.iter().map(Record::late_ms).collect();
        assert!(late[0] >= 80.0, "{late:?}");
        assert!(records
            .iter()
            .all(|r| r.latency_ms().unwrap() >= r.late_ms()));
    }

    #[test]
    fn never_more_connections_than_nproc() {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert!(max_connections() <= nproc && max_connections() <= 2);
        let (addr, server) = stub(u64::MAX, Duration::ZERO);
        let too_many: Vec<TcpStream> = (0..=max_connections())
            .map(|_| TcpStream::connect(addr).unwrap())
            .collect();
        let refused = std::panic::catch_unwind(|| {
            run(
                too_many,
                &requests(1),
                Instant::now(),
                Duration::ZERO,
                Duration::from_millis(10),
            )
        });
        assert!(refused.is_err());
        server.join().unwrap();
    }
}
