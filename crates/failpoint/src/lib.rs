//! Deterministic fault-injection points for the regenr workspace.
//!
//! A *failpoint* is a named site in the code where a fault can be injected
//! for testing: a panic, an error return, a fixed delay, or a NaN
//! corruption. Sites are written with the [`failpoint!`] /
//! [`failpoint_return!`] macros and cost **nothing** unless the
//! `failpoints` cargo feature is enabled — without it the macros expand to
//! empty token trees, so the default build contains no registry, no atomic
//! loads, not even a branch.
//!
//! With the feature on, sites stay dormant until *armed* through
//! [`configure`] (or the `REGENR_FAILPOINTS` environment variable, read
//! once on first use). The spec grammar is fully deterministic — there is
//! no RNG anywhere:
//!
//! ```text
//! spec     := entry (';' entry)*
//! entry    := name '=' action (',' trigger)?
//! action   := 'panic' | 'error' | 'nan' | 'delay:' millis | 'off'
//! trigger  := 'count=' N     fire on the first N evaluations, then disarm
//!           | 'every=' N     fire on every N-th evaluation (N, 2N, ...)
//! ```
//!
//! Examples: `serve-owner=panic,count=1`, `sr-nan=nan,every=3`,
//! `serve-write=delay:25`.
//!
//! `panic` and `delay` are executed *inside* the registry (every site
//! honours them); `error` and `nan` are returned to the site, which
//! decides what an injected error or NaN means locally. Sites written
//! with the bare `failpoint!(name)` form silently ignore `error`/`nan`.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Action a failpoint evaluation resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Unwind at the site with a recognizable message.
    Panic,
    /// Ask the site to return its injected-fault error.
    Error,
    /// Sleep for the given number of milliseconds, then continue.
    Delay(u64),
    /// Ask the site to corrupt a value with NaN.
    Nan,
}

/// Actions that are handed back to the site (panic/delay are consumed by
/// the registry itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fired {
    /// The site should return its injected-fault error.
    Error,
    /// The site should corrupt a value with NaN.
    Nan,
}

struct Entry {
    action: Action,
    /// Remaining fires for `count=N`; `None` means unlimited.
    remaining: Option<u64>,
    /// Fire only when `hits % every == 0` (1-based), when set.
    every: Option<u64>,
    /// Evaluations of this point since it was armed.
    hits: u64,
    /// Evaluations that actually fired.
    fired: u64,
}

#[derive(Default)]
struct Registry {
    points: HashMap<String, Entry>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let mut reg = Registry::default();
        if let Ok(spec) = std::env::var("REGENR_FAILPOINTS") {
            // A malformed env spec must not be silently ignored in test
            // builds, but panicking inside a OnceLock init would poison
            // every later call — report and skip the bad entry instead.
            if let Err(e) = apply(&mut reg, &spec) {
                eprintln!("REGENR_FAILPOINTS ignored entry: {e}");
            }
        }
        Mutex::new(reg)
    })
}

fn parse_entry(entry: &str) -> Result<(String, Entry), String> {
    let (name, rest) = entry
        .split_once('=')
        .ok_or_else(|| format!("missing '=' in failpoint entry {entry:?}"))?;
    let name = name.trim();
    if name.is_empty() {
        return Err(format!("empty failpoint name in {entry:?}"));
    }
    let mut parts = rest.split(',');
    let action_str = parts.next().unwrap_or("").trim();
    let action = if let Some(ms) = action_str.strip_prefix("delay:") {
        Action::Delay(
            ms.parse::<u64>()
                .map_err(|_| format!("bad delay millis {ms:?} in {entry:?}"))?,
        )
    } else {
        match action_str {
            "panic" => Action::Panic,
            "error" => Action::Error,
            "nan" => Action::Nan,
            "off" => {
                return Ok((
                    name.to_string(),
                    Entry {
                        action: Action::Error,
                        remaining: Some(0),
                        every: None,
                        hits: 0,
                        fired: 0,
                    },
                ))
            }
            other => return Err(format!("unknown failpoint action {other:?} in {entry:?}")),
        }
    };
    let mut remaining = None;
    let mut every = None;
    for t in parts {
        let t = t.trim();
        if let Some(n) = t.strip_prefix("count=") {
            remaining = Some(
                n.parse::<u64>()
                    .map_err(|_| format!("bad count {n:?} in {entry:?}"))?,
            );
        } else if let Some(n) = t.strip_prefix("every=") {
            let n = n
                .parse::<u64>()
                .map_err(|_| format!("bad every {n:?} in {entry:?}"))?;
            if n == 0 {
                return Err(format!("every=0 in {entry:?}"));
            }
            every = Some(n);
        } else if !t.is_empty() {
            return Err(format!("unknown failpoint trigger {t:?} in {entry:?}"));
        }
    }
    Ok((
        name.to_string(),
        Entry {
            action,
            remaining,
            every,
            hits: 0,
            fired: 0,
        },
    ))
}

fn apply(reg: &mut Registry, spec: &str) -> Result<(), String> {
    for entry in spec.split(';') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (name, e) = parse_entry(entry)?;
        reg.points.insert(name, e);
    }
    Ok(())
}

/// Arm failpoints from a spec string (see module docs for the grammar).
/// Entries are merged into the current configuration; re-arming a name
/// resets its hit counters. Returns an error for malformed specs.
pub fn configure(spec: &str) -> Result<(), String> {
    let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    apply(&mut reg, spec)
}

/// Disarm every failpoint and reset all counters.
pub fn clear() {
    let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    reg.points.clear();
}

/// Disarm a single failpoint.
pub fn disarm(name: &str) {
    let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    reg.points.remove(name);
}

/// How many times `name` has fired since it was armed (0 if not armed).
pub fn fired_count(name: &str) -> u64 {
    let reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    reg.points.get(name).map_or(0, |e| e.fired)
}

/// Evaluate a failpoint, deciding deterministically whether it fires.
/// Consumes `panic`/`delay` internally; hands `error`/`nan` to the site.
///
/// This is the backend of the site macros; call it directly only in tests.
pub fn eval(name: &str) -> Option<Fired> {
    let action = {
        let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
        let entry = reg.points.get_mut(name)?;
        entry.hits += 1;
        if let Some(every) = entry.every {
            if entry.hits % every != 0 {
                return None;
            }
        }
        if let Some(rem) = &mut entry.remaining {
            if *rem == 0 {
                return None;
            }
            *rem -= 1;
        }
        entry.fired += 1;
        entry.action
    };
    match action {
        Action::Panic => panic!("failpoint {name} injected panic"),
        Action::Delay(ms) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            None
        }
        Action::Error => Some(Fired::Error),
        Action::Nan => Some(Fired::Nan),
    }
}

/// Unit-site backend: honours panic/delay, ignores error/nan.
pub fn eval_unit(name: &str) {
    let _ = eval(name);
}

/// A named fault-injection site.
///
/// `failpoint!("name")` — bare site: an armed `panic` unwinds here, a
/// `delay:ms` sleeps here; `error`/`nan` are ignored.
///
/// `failpoint!("name", |fired| ...)` — the closure runs (for side effects
/// such as corrupting a local with NaN) when the point fires with an
/// `error` or `nan` action; `fired` is a [`Fired`].
#[cfg(feature = "failpoints")]
#[macro_export]
macro_rules! failpoint {
    ($name:expr) => {
        $crate::eval_unit($name)
    };
    ($name:expr, $closure:expr) => {
        if let Some(__fp_fired) = $crate::eval($name) {
            #[allow(clippy::redundant_closure_call)]
            ($closure)(__fp_fired);
        }
    };
}

/// See the `failpoints`-enabled definition; without the feature the macro
/// expands to nothing.
#[cfg(not(feature = "failpoints"))]
#[macro_export]
macro_rules! failpoint {
    ($name:expr) => {};
    ($name:expr, $closure:expr) => {};
}

/// An error-returning fault-injection site: when the point fires with the
/// `error` action, evaluates `$ret` and `return`s it from the enclosing
/// function. `panic`/`delay` behave as in [`failpoint!`]; `nan` is ignored.
#[cfg(feature = "failpoints")]
#[macro_export]
macro_rules! failpoint_return {
    ($name:expr, $ret:expr) => {
        if let Some($crate::Fired::Error) = $crate::eval($name) {
            return $ret;
        }
    };
}

/// See the `failpoints`-enabled definition; without the feature the macro
/// expands to nothing.
#[cfg(not(feature = "failpoints"))]
#[macro_export]
macro_rules! failpoint_return {
    ($name:expr, $ret:expr) => {};
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global and tests run concurrently, so every
    // test uses its own point names.

    #[test]
    fn unarmed_points_do_nothing() {
        assert_eq!(eval("t-unarmed"), None);
        assert_eq!(fired_count("t-unarmed"), 0);
    }

    #[test]
    fn count_trigger_fires_then_disarms() {
        configure("t-count=error,count=2").unwrap();
        assert_eq!(eval("t-count"), Some(Fired::Error));
        assert_eq!(eval("t-count"), Some(Fired::Error));
        assert_eq!(eval("t-count"), None);
        assert_eq!(fired_count("t-count"), 2);
        disarm("t-count");
    }

    #[test]
    fn every_trigger_is_periodic() {
        configure("t-every=nan,every=3").unwrap();
        let fires: Vec<bool> = (0..9).map(|_| eval("t-every").is_some()).collect();
        assert_eq!(
            fires,
            [false, false, true, false, false, true, false, false, true]
        );
        disarm("t-every");
    }

    #[test]
    fn every_and_count_compose() {
        configure("t-both=error,every=2,count=1").unwrap();
        let fires: Vec<bool> = (0..6).map(|_| eval("t-both").is_some()).collect();
        assert_eq!(fires, [false, true, false, false, false, false]);
        disarm("t-both");
    }

    #[test]
    fn panic_action_unwinds() {
        configure("t-panic=panic,count=1").unwrap();
        let r = std::panic::catch_unwind(|| eval_unit("t-panic"));
        assert!(r.is_err());
        assert_eq!(eval("t-panic"), None); // count exhausted
        disarm("t-panic");
    }

    #[test]
    fn delay_action_sleeps_and_continues() {
        configure("t-delay=delay:10,count=1").unwrap();
        let t0 = std::time::Instant::now();
        assert_eq!(eval("t-delay"), None);
        assert!(t0.elapsed() >= std::time::Duration::from_millis(10));
        disarm("t-delay");
    }

    #[test]
    fn off_disarms_without_removing() {
        configure("t-off=error").unwrap();
        assert_eq!(eval("t-off"), Some(Fired::Error));
        configure("t-off=off").unwrap();
        assert_eq!(eval("t-off"), None);
        disarm("t-off");
    }

    #[test]
    fn rearm_resets_counters() {
        configure("t-rearm=error,count=1").unwrap();
        assert_eq!(eval("t-rearm"), Some(Fired::Error));
        assert_eq!(eval("t-rearm"), None);
        configure("t-rearm=error,count=1").unwrap();
        assert_eq!(eval("t-rearm"), Some(Fired::Error));
        disarm("t-rearm");
    }

    #[test]
    fn malformed_specs_error() {
        assert!(configure("nonsense").is_err());
        assert!(configure("x=explode").is_err());
        assert!(configure("x=delay:abc").is_err());
        assert!(configure("x=error,count=abc").is_err());
        assert!(configure("x=error,every=0").is_err());
        assert!(configure("=panic").is_err());
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn macro_closure_form_runs_on_fire() {
        configure("t-macro=nan,count=1").unwrap();
        let mut v = 1.0f64;
        failpoint!("t-macro", |f| {
            if matches!(f, Fired::Nan) {
                v = f64::NAN;
            }
        });
        assert!(v.is_nan());
        disarm("t-macro");
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn macro_return_form_returns_on_error() {
        fn site() -> Result<u32, String> {
            failpoint_return!("t-ret", Err("injected".to_string()));
            Ok(7)
        }
        assert_eq!(site(), Ok(7));
        configure("t-ret=error,count=1").unwrap();
        assert_eq!(site(), Err("injected".to_string()));
        assert_eq!(site(), Ok(7));
        disarm("t-ret");
    }
}
