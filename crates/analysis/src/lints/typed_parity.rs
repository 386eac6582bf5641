//! Lint 1 — **typed-error parity**: every non-test `pub fn` in the
//! typed-error crates (`rfbist-core`, `rfbist-sampling`) that can
//! panic must have a `try_*` twin, and the panicking form must be a
//! thin delegate over it (`try_*(..).unwrap_or_else(|e| panic!(..))`,
//! as `PnbsGridPlan::stream_blocks_parallel` delegates to
//! `try_stream_blocks_parallel`, or a one-expression forward to
//! another wrapper that itself has a `try_*` twin).
//! `rfbist-core` keeps only the typed form of each entry point, so
//! every thin-delegate pair the lint checks lives in `rfbist-sampling`.
//!
//! Panic capability propagates: a `pub fn` whose body only calls a
//! panicking sibling in the same file can panic too (that is exactly
//! what the thin wrappers do), so the fixpoint over same-file calls
//! decides, not just the function's own tokens.

use super::{calls_fn, panics_directly};
use crate::findings::Finding;
use crate::registry::{has_typed_error_contract, Lint};
use crate::scanner::SourceFile;

pub struct TypedErrorParity;

impl Lint for TypedErrorParity {
    fn name(&self) -> &'static str {
        "typed-error-parity"
    }

    fn description(&self) -> &'static str {
        "panicking pub fns in rfbist-core/rfbist-sampling need a try_* twin and a thin-delegate body"
    }

    fn applies_to(&self, rel_path: &str) -> bool {
        has_typed_error_contract(rel_path)
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        let bodies: Vec<String> = file.fns.iter().map(|f| file.body_text(f)).collect();

        // Panic capability to fixpoint over same-file calls.
        let mut can_panic: Vec<bool> = bodies.iter().map(|b| panics_directly(b)).collect();
        loop {
            let mut changed = false;
            for i in 0..file.fns.len() {
                if can_panic[i] {
                    continue;
                }
                let body = &bodies[i];
                let propagated = file
                    .fns
                    .iter()
                    .enumerate()
                    .any(|(j, g)| j != i && can_panic[j] && calls_fn(body, &g.name));
                if propagated {
                    can_panic[i] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        for (i, decl) in file.fns.iter().enumerate() {
            if !decl.is_pub
                || decl.name.starts_with("try_")
                || decl.body.is_none()
                || file.is_test_line(decl.sig_line)
                || !can_panic[i]
            {
                continue;
            }
            let twin = format!("try_{}", decl.name);
            let has_twin = file.fns.iter().any(|g| g.name == twin);
            if !has_twin {
                out.push(Finding {
                    lint: self.name().to_string(),
                    file: file.rel_path.clone(),
                    line: decl.sig_line + 1,
                    symbol: decl.name.clone(),
                    slug: "missing-try-twin".to_string(),
                    message: format!(
                        "pub fn `{}` can panic but has no `{twin}` twin returning a typed BistError",
                        decl.name
                    ),
                });
                continue;
            }
            if !is_thin_delegate(file, &bodies[i], &decl.name) {
                out.push(Finding {
                    lint: self.name().to_string(),
                    file: file.rel_path.clone(),
                    line: decl.sig_line + 1,
                    symbol: decl.name.clone(),
                    slug: "not-thin-delegate".to_string(),
                    message: format!(
                        "pub fn `{}` has a `{twin}` twin but its body is not a thin delegate \
                         (`{twin}(..).unwrap_or_else(|e| panic!(..))` or a one-expression \
                         forward to another wrapper)",
                        decl.name
                    ),
                });
            }
        }
    }
}

/// Accepts the two sanctioned wrapper shapes.
fn is_thin_delegate(file: &SourceFile, body: &str, name: &str) -> bool {
    let twin = format!("try_{name}");
    // Shape A: delegate straight to the twin and re-panic the typed
    // error's Display (which preserves the legacy panic message).
    if calls_fn(body, &twin) && body.contains("unwrap_or_else") && body.contains("panic!") {
        return true;
    }
    // Shape B: a one-expression forward to another fn that itself has
    // a `try_` twin in this file (e.g. `run` forwarding to `run_with`
    // with fresh scratch).
    let code_lines = body
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && *l != "{" && *l != "}")
        .count();
    if code_lines <= 3 {
        return file.fns.iter().any(|g| {
            g.name != name
                && !g.name.starts_with("try_")
                && calls_fn(body, &g.name)
                && file.fns.iter().any(|h| h.name == format!("try_{}", g.name))
        });
    }
    false
}
