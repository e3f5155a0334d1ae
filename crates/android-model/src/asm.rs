//! A textual assembler for Android apps.
//!
//! The original SIERRA consumes APKs; this reproduction's equivalent input
//! format is a small assembly language over the `apir` IR with the
//! framework pre-installed, so apps are writable as plain text (diffable,
//! generatable, shippable as fixtures) without touching the builder API:
//!
//! ```text
//! class com.ex.Main extends android.app.Activity
//!       implements android.view.View$OnClickListener {
//!   field adapter: ref java.lang.Object
//!   method onCreate(this) {
//!     bb0:
//!       v1 = new java.lang.Object
//!       this.adapter = v1
//!       v2 = call virtual android.app.Activity.findViewById(this, 1)
//!       call virtual android.view.View.setOnClickListener(v2, this)
//!       return
//!   }
//!   method onClick(this, v) {
//!     bb0:
//!       x = this.adapter
//!       return
//!   }
//! }
//! layout com.ex.Main {
//!   view 1: android.widget.TextView
//! }
//! ```
//!
//! Grammar summary (one statement per line, `//` comments):
//!
//! - `field [static] name: int|bool|str|ref <Class>`
//! - `method name(this, p2, …) [static] { … }` — `this` is parameter 0 of
//!   instance methods and is typed as the enclosing class
//! - `bbN:` labels blocks; `bb0` (or the implicit first block) is the entry
//! - `x = const`, `x = y`, `x = new Class`, `x = y.field`, `y.field = op`,
//!   `x = Class::field`, `Class::field = op`; when the receiver's class is
//!   not inferable, the qualified form `y.Class#field` names the declaring
//!   class explicitly (the disassembler always emits it for non-`this`
//!   receivers)
//! - `[x =] call virtual|static|special Class.method(args…)` — the first
//!   argument of instance calls is the receiver
//! - `x = a <op> b` with `+ - * == != < <= && ||`; `x = !y`, `x = -y`
//! - operands: locals, integers, `true`/`false`, `null`, and string
//!   literals `"text"`, in which `\u{hex}` stands for any character; the
//!   disassembler escapes every character outside `[A-Za-z0-9._$-]`, so
//!   a literal never holds a space, comma, parenthesis, `=`, `:` or `/`
//! - terminators: `return [op]`, `goto bbN`, `if x then bbA else bbB`,
//!   `nondet bbA bbB …`
//!
//! Locals are typed by inference (assignments from `new`, loads, calls and
//! constants), which is what lets unqualified `y.field` resolve. Classes
//! extending `Activity`/`BroadcastReceiver`/`Service` register in the
//! manifest automatically, in source order; `unlisted class …` keeps one
//! out (a receiver registered only through `registerReceiver`, say).

use crate::app::{AndroidApp, AndroidAppBuilder};
use crate::callbacks::GuiEventKind;
use crate::gui::{Layout, ViewDecl};
use apir::{
    BinOp, BlockId, ClassId, CmpOp, ConstValue, FieldId, InvokeKind, Local, MethodBuilder,
    MethodId, Operand, Type, UnOp,
};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A parse/resolution error with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number (0 for whole-program errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for AsmError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, AsmError> {
    Err(AsmError {
        line,
        message: message.into(),
    })
}

// ---- source structure (pass 1) ----

#[derive(Debug)]
struct ClassSrc {
    line: usize,
    name: String,
    super_name: Option<String>,
    interfaces: Vec<String>,
    is_interface: bool,
    unlisted: bool,                             // kept out of the manifest
    fields: Vec<(usize, bool, String, String)>, // (line, is_static, name, type text)
    methods: Vec<MethodSrc>,
}

#[derive(Debug)]
struct MethodSrc {
    line: usize,
    name: String,
    params: Vec<(String, Option<String>)>, // (name, type annotation)
    is_static: bool,
    body: Vec<(usize, String)>,
}

#[derive(Debug)]
struct LayoutSrc {
    line: usize,
    class: String,
    views: Vec<(usize, String)>,
}

/// Assembles an app from source text.
///
/// # Errors
///
/// Returns an [`AsmError`] naming the offending line for syntax errors,
/// unknown names, type-inference failures, or IR validation failures.
pub fn parse_app(app_name: &str, source: &str) -> Result<AndroidApp, AsmError> {
    parse_app_with(app_name, source, None)
}

/// [`parse_app`], optionally interning strings in a shared
/// [`apir::SymbolArena`] so repeated parses (corpus runs, the serve
/// loop) store each distinct name once per process.
///
/// # Errors
///
/// Same as [`parse_app`].
pub fn parse_app_with(
    app_name: &str,
    source: &str,
    arena: Option<std::sync::Arc<apir::SymbolArena>>,
) -> Result<AndroidApp, AsmError> {
    let (classes, layouts) = parse_structure(source)?;
    let mut builder = match arena {
        Some(arena) => AndroidAppBuilder::with_arena(app_name, arena),
        None => AndroidAppBuilder::new(app_name),
    };

    // Declare every class first (supers wired after) so order is free.
    let mut class_ids: HashMap<String, ClassId> = HashMap::new();
    for c in &classes {
        if builder.program_builder().find_class(&c.name).is_some() {
            return err(c.line, format!("duplicate class {}", c.name));
        }
        let id = builder.bare_class(&c.name);
        if c.is_interface {
            builder.program_builder().set_interface_of(id);
        }
        class_ids.insert(c.name.clone(), id);
    }
    let resolve_class = |builder: &mut AndroidAppBuilder, name: &str, line: usize| {
        builder.program_builder().find_class(name).ok_or(AsmError {
            line,
            message: format!("unknown class {name}"),
        })
    };

    // Wire hierarchies, then manifest components, then fields, then
    // reserve all method ids.
    for c in &classes {
        let id = class_ids[&c.name];
        if let Some(sup) = &c.super_name {
            let s = resolve_class(&mut builder, sup, c.line)?;
            builder.program_builder().set_super_of(id, s);
        }
        for iface in &c.interfaces {
            let i = resolve_class(&mut builder, iface, c.line)?;
            builder.program_builder().add_interface_to(id, i);
        }
    }
    for c in classes.iter().filter(|c| !c.unlisted) {
        builder.register_component(class_ids[&c.name]);
    }
    for c in &classes {
        let id = class_ids[&c.name];
        for (line, is_static, fname, ty_text) in &c.fields {
            let ty = parse_type(&mut builder, ty_text, *line)?;
            builder
                .program_builder()
                .add_field(id, fname, ty, *is_static);
        }
    }
    let mut method_ids: Vec<(ClassId, MethodId, &MethodSrc)> = Vec::new();
    for c in &classes {
        let id = class_ids[&c.name];
        for m in &c.methods {
            let mid = builder
                .program_builder()
                .abstract_method(id, &m.name, m.params.len() as u32);
            method_ids.push((id, mid, m));
        }
    }

    // Assemble bodies.
    for (class, mid, src) in &method_ids {
        assemble_body(&mut builder, *class, *mid, src)?;
    }

    // Layouts last (method references now resolvable).
    for l in &layouts {
        let class = resolve_class(&mut builder, &l.class, l.line)?;
        let mut layout = Layout::new(class);
        for (line, text) in &l.views {
            layout.add_view(parse_view(&mut builder, text, *line)?);
        }
        builder.add_layout(layout);
    }

    builder.finish().map_err(|e| AsmError {
        line: 0,
        message: format!("IR validation failed: {e}"),
    })
}

fn strip_comment(line: &str) -> &str {
    match line.find("//") {
        Some(idx) => &line[..idx],
        None => line,
    }
}

fn parse_structure(source: &str) -> Result<(Vec<ClassSrc>, Vec<LayoutSrc>), AsmError> {
    let lines: Vec<(usize, String)> = source
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, strip_comment(l).trim().to_owned()))
        .filter(|(_, l)| !l.is_empty())
        .collect();
    let mut classes = Vec::new();
    let mut layouts = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let (ln, line) = (&lines[i].0, lines[i].1.as_str());
        let (unlisted, line) = line
            .strip_prefix("unlisted ")
            .map_or((false, line), |l| (true, l));
        if let Some(rest) = line
            .strip_prefix("class ")
            .or_else(|| line.strip_prefix("interface "))
        {
            let is_interface = line.starts_with("interface ");
            // Headers may continue onto following lines until the `{`.
            let mut header = rest.trim().to_owned();
            while !header.ends_with('{') {
                i += 1;
                let Some((_, cont)) = lines.get(i) else {
                    return err(*ln, "class header missing `{`");
                };
                header.push(' ');
                header.push_str(cont);
            }
            let header = header.trim_end_matches('{').trim();
            let (name, super_name, interfaces) = parse_class_header(header);
            let mut fields = Vec::new();
            let mut methods = Vec::new();
            i += 1;
            while i < lines.len() && lines[i].1 != "}" {
                let (mln, ml) = (lines[i].0, lines[i].1.as_str());
                if let Some(rest) = ml.strip_prefix("field ") {
                    let (fname, ty) = rest.split_once(':').ok_or(AsmError {
                        line: mln,
                        message: "field needs `name: type`".into(),
                    })?;
                    let fname = fname.trim();
                    let (is_static, fname) = match fname.strip_prefix("static ") {
                        Some(f) => (true, f.trim()),
                        None => (false, fname),
                    };
                    fields.push((mln, is_static, fname.to_owned(), ty.trim().to_owned()));
                    i += 1;
                } else if let Some(rest) = ml.strip_prefix("method ") {
                    let sig = rest.trim_end_matches('{').trim();
                    let (is_static, sig) = match sig.strip_suffix("static") {
                        Some(s) => (true, s.trim()),
                        None => (false, sig),
                    };
                    let (mname, params_text) = sig.split_once('(').ok_or(AsmError {
                        line: mln,
                        message: "method needs `name(params)`".into(),
                    })?;
                    let params: Vec<(String, Option<String>)> = params_text
                        .trim_end_matches(')')
                        .split(',')
                        .map(str::trim)
                        .filter(|p| !p.is_empty())
                        .map(|p| match p.split_once(':') {
                            Some((n, t)) => (n.trim().to_owned(), Some(t.trim().to_owned())),
                            None => (p.to_owned(), None),
                        })
                        .collect();
                    let mut body = Vec::new();
                    i += 1;
                    while i < lines.len() && lines[i].1 != "}" {
                        body.push((lines[i].0, lines[i].1.clone()));
                        i += 1;
                    }
                    if i >= lines.len() {
                        return err(mln, "unterminated method body");
                    }
                    i += 1; // consume method "}"
                    methods.push(MethodSrc {
                        line: mln,
                        name: mname.trim().to_owned(),
                        params,
                        is_static,
                        body,
                    });
                } else {
                    return err(mln, format!("unexpected line in class body: {ml:?}"));
                }
            }
            if i >= lines.len() {
                return err(*ln, "unterminated class body");
            }
            i += 1; // consume class "}"
            classes.push(ClassSrc {
                line: *ln,
                name,
                super_name,
                interfaces,
                is_interface,
                unlisted,
                fields,
                methods,
            });
        } else if let Some(rest) = line.strip_prefix("layout ") {
            let class = rest.trim_end_matches('{').trim().to_owned();
            let mut views = Vec::new();
            i += 1;
            while i < lines.len() && lines[i].1 != "}" {
                views.push((lines[i].0, lines[i].1.clone()));
                i += 1;
            }
            if i >= lines.len() {
                return err(*ln, "unterminated layout body");
            }
            i += 1;
            layouts.push(LayoutSrc {
                line: *ln,
                class,
                views,
            });
        } else {
            return err(
                *ln,
                format!("expected `class`, `interface`, or `layout`, got {line:?}"),
            );
        }
    }
    Ok((classes, layouts))
}

/// `Name [extends Super] [implements A, B]`.
fn parse_class_header(header: &str) -> (String, Option<String>, Vec<String>) {
    let mut toks = header.split_whitespace();
    let name = toks.next().unwrap_or_default().to_owned();
    let mut sup = None;
    let mut ifaces = Vec::new();
    let mut mode = "";
    for tok in toks {
        match tok {
            "extends" | "implements" => mode = tok,
            t => match mode {
                "extends" => sup = Some(t.trim_end_matches(',').to_owned()),
                "implements" => {
                    for part in t.split(',') {
                        let part = part.trim();
                        if !part.is_empty() {
                            ifaces.push(part.to_owned());
                        }
                    }
                }
                _ => {}
            },
        }
    }
    (name, sup, ifaces)
}

fn parse_type(builder: &mut AndroidAppBuilder, text: &str, line: usize) -> Result<Type, AsmError> {
    match text {
        "int" => Ok(Type::Int),
        "bool" => Ok(Type::Bool),
        "str" => Ok(Type::Str),
        _ => {
            let cname = text.strip_prefix("ref ").unwrap_or(text).trim();
            let c = builder
                .program_builder()
                .find_class(cname)
                .ok_or(AsmError {
                    line,
                    message: format!("unknown type {cname}"),
                })?;
            Ok(Type::Ref(c))
        }
    }
}

/// `view <id>: <Class> [after <id>] [onClick <Class.method>]`.
fn parse_view(
    builder: &mut AndroidAppBuilder,
    text: &str,
    line: usize,
) -> Result<ViewDecl, AsmError> {
    let rest = text.strip_prefix("view ").ok_or(AsmError {
        line,
        message: "expected `view <id>: <class> …`".into(),
    })?;
    let (id, rest) = rest.split_once(':').ok_or(AsmError {
        line,
        message: "view needs `id: class`".into(),
    })?;
    let id: i32 = id.trim().parse().map_err(|_| AsmError {
        line,
        message: "bad view id".into(),
    })?;
    let mut toks = rest.split_whitespace();
    let cname = toks.next().ok_or(AsmError {
        line,
        message: "view needs a class".into(),
    })?;
    let vclass = builder
        .program_builder()
        .find_class(cname)
        .ok_or(AsmError {
            line,
            message: format!("unknown view class {cname}"),
        })?;
    let mut decl = ViewDecl::new(id, vclass);
    while let Some(tok) = toks.next() {
        match tok {
            "after" => {
                let a = toks.next().and_then(|t| t.parse().ok()).ok_or(AsmError {
                    line,
                    message: "`after` needs a view id".into(),
                })?;
                decl = decl.with_after(a);
            }
            "onClick" => {
                let target = toks.next().ok_or(AsmError {
                    line,
                    message: "`onClick` needs Class.method".into(),
                })?;
                let m = resolve_method_name(builder, target, line)?;
                decl = decl.with_xml_listener(GuiEventKind::Click, m);
            }
            other => return err(line, format!("unknown view attribute {other:?}")),
        }
    }
    Ok(decl)
}

/// Resolves `Class.method`, walking up the hierarchy for inherited methods.
fn resolve_method_name(
    builder: &mut AndroidAppBuilder,
    text: &str,
    line: usize,
) -> Result<MethodId, AsmError> {
    let (cname, mname) = text.rsplit_once('.').ok_or(AsmError {
        line,
        message: format!("expected Class.method, got {text:?}"),
    })?;
    let class = builder
        .program_builder()
        .find_class(cname)
        .ok_or(AsmError {
            line,
            message: format!("unknown class {cname}"),
        })?;
    let mut cur = Some(class);
    while let Some(c) = cur {
        if let Some(m) = builder.program_builder().find_method(c, mname) {
            return Ok(m);
        }
        cur = builder.program_builder().super_class_of(c);
    }
    err(line, format!("unknown method {text}"))
}

// ---- body assembly ----

struct Env {
    locals: HashMap<String, Local>,
    /// Inferred reference class per local (for unqualified field access).
    types: HashMap<Local, ClassId>,
    blocks: HashMap<String, BlockId>,
}

impl Env {
    fn local(&mut self, mb: &mut MethodBuilder<'_>, name: &str) -> Local {
        if let Some(&l) = self.locals.get(name) {
            return l;
        }
        let l = mb.fresh_local();
        self.locals.insert(name.to_owned(), l);
        l
    }

    fn existing(&self, name: &str, line: usize) -> Result<Local, AsmError> {
        self.locals.get(name).copied().ok_or(AsmError {
            line,
            message: format!("use of unassigned local {name}"),
        })
    }
}

fn assemble_body(
    builder: &mut AndroidAppBuilder,
    class: ClassId,
    mid: MethodId,
    src: &MethodSrc,
) -> Result<(), AsmError> {
    // Pre-resolve parameter types (annotations + implicit `this`).
    let mut param_types: Vec<Option<ClassId>> = Vec::new();
    for (idx, (pname, ann)) in src.params.iter().enumerate() {
        let t = if let Some(ann) = ann {
            match parse_type(builder, ann, src.line)? {
                Type::Ref(c) => Some(c),
                _ => None,
            }
        } else if idx == 0 && pname == "this" && !src.is_static {
            Some(class)
        } else {
            None
        };
        param_types.push(t);
    }

    let mut mb = builder.program_builder().fill_method(mid);
    mb.set_param_count(src.params.len() as u32);
    if src.is_static {
        mb.set_static();
    }
    let mut env = Env {
        locals: HashMap::new(),
        types: HashMap::new(),
        blocks: HashMap::new(),
    };
    for (idx, (pname, _)) in src.params.iter().enumerate() {
        let l = Local(idx as u32);
        env.locals.insert(pname.clone(), l);
        if let Some(c) = param_types[idx] {
            env.types.insert(l, c);
        }
    }

    // A block may use a local that a later block assigns (a loop's back
    // edge): every assigned name gets its local up front, in the order
    // the statements would allocate them. Unassigned names stay unknown.
    for (_, line) in &src.body {
        if let Some(lhs) = assigned_local(line) {
            env.local(&mut mb, lhs);
        }
    }

    // Collect labels so forward branches resolve.
    let mut first_label = true;
    for (_, line) in &src.body {
        if let Some(label) = line.strip_suffix(':') {
            let label = label.trim();
            if env.blocks.contains_key(label) {
                continue;
            }
            let id = if first_label {
                BlockId(0)
            } else {
                mb.new_block()
            };
            first_label = false;
            env.blocks.insert(label.to_owned(), id);
        }
    }

    let mut terminated = false;
    for (ln, line) in &src.body {
        if let Some(label) = line.strip_suffix(':') {
            let id = env.blocks[label.trim()];
            mb.switch_to(id);
            terminated = false;
            continue;
        }
        if terminated {
            return err(*ln, "statement after terminator; start a new block");
        }
        terminated = assemble_stmt(&mut mb, &mut env, class, *ln, line)?;
    }
    mb.finish();
    Ok(())
}

fn parse_operand(
    mb: &mut MethodBuilder<'_>,
    env: &Env,
    text: &str,
    line: usize,
) -> Result<Operand, AsmError> {
    let t = text.trim();
    if t == "null" {
        return Ok(Operand::Const(ConstValue::Null));
    }
    if t == "true" {
        return Ok(Operand::Const(ConstValue::Bool(true)));
    }
    if t == "false" {
        return Ok(Operand::Const(ConstValue::Bool(false)));
    }
    if let Ok(v) = t.parse::<i64>() {
        return Ok(Operand::Const(ConstValue::Int(v)));
    }
    if let Some(quoted) = t.strip_prefix('"') {
        let text = quoted
            .strip_suffix('"')
            .and_then(unescape)
            .ok_or(AsmError {
                line,
                message: format!("malformed string literal {t}"),
            })?;
        return Ok(Operand::Const(ConstValue::Str(mb.program().intern(&text))));
    }
    env.existing(t, line).map(Operand::Local)
}

/// Whether a string-literal character is written as itself. Every other
/// character is escaped, so a rendered literal never holds a space, a
/// comma, a parenthesis, `=`, `:`, `/` or a quote that the line-oriented
/// parser would split on.
fn plain_in_literal(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '$' | '-')
}

/// The text of a string literal's body: `\u{hex}` escapes decoded; a raw
/// quote or backslash, or a bad escape, is malformed (`None`).
fn unescape(body: &str) -> Option<String> {
    let mut out = String::with_capacity(body.len());
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return None,
            '\\' => {
                let rest = chars.as_str().strip_prefix("u{")?;
                let (hex, tail) = rest.split_once('}')?;
                out.push(char::from_u32(u32::from_str_radix(hex, 16).ok()?)?);
                chars = tail.chars();
            }
            c => out.push(c),
        }
    }
    Some(out)
}

/// Renders `text` as a string literal [`unescape`] reads back.
fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        if plain_in_literal(c) {
            out.push(c);
        } else {
            out.push_str(&format!("\\u{{{:x}}}", u32::from(c)));
        }
    }
    out.push('"');
    out
}

/// Assembles one statement; returns whether it terminated the block.
fn assemble_stmt(
    mb: &mut MethodBuilder<'_>,
    env: &mut Env,
    _class: ClassId,
    line: usize,
    text: &str,
) -> Result<bool, AsmError> {
    // ---- terminators ----
    if text == "return" {
        mb.ret(None);
        return Ok(true);
    }
    if let Some(rest) = text.strip_prefix("return ") {
        let op = parse_operand(mb, env, rest, line)?;
        mb.ret(Some(op));
        return Ok(true);
    }
    if let Some(rest) = text.strip_prefix("goto ") {
        let b = block_of(env, rest.trim(), line)?;
        mb.goto(b);
        return Ok(true);
    }
    if let Some(rest) = text.strip_prefix("if ") {
        // if x then bbA else bbB
        let (cond, rest) = rest.split_once(" then ").ok_or(AsmError {
            line,
            message: "if needs `then`".into(),
        })?;
        let (then_l, else_l) = rest.split_once(" else ").ok_or(AsmError {
            line,
            message: "if needs `else`".into(),
        })?;
        let cond = parse_operand(mb, env, cond, line)?;
        let t = block_of(env, then_l.trim(), line)?;
        let e = block_of(env, else_l.trim(), line)?;
        mb.if_(cond, t, e);
        return Ok(true);
    }
    if let Some(rest) = text.strip_prefix("nondet ") {
        let targets: Result<Vec<BlockId>, AsmError> = rest
            .split_whitespace()
            .map(|l| block_of(env, l, line))
            .collect();
        mb.nondet(targets?);
        return Ok(true);
    }

    // ---- call without destination ----
    if text.starts_with("call ") {
        assemble_call(mb, env, None, text, line)?;
        return Ok(false);
    }

    // ---- assignments & stores: split on the top-level `=` ----
    let (lhs, rhs) = match split_assign(text) {
        Some(pair) => pair,
        None => return err(line, format!("unrecognized statement {text:?}")),
    };
    let (lhs, rhs) = (lhs.trim(), rhs.trim());

    // Store forms: `y.field = op` / `Class::field = op`.
    if let Some((cname, fname)) = lhs.split_once("::") {
        let field = resolve_static_field(mb, cname.trim(), fname.trim(), line)?;
        let op = parse_operand(mb, env, rhs, line)?;
        mb.static_store(field, op);
        return Ok(false);
    }
    if lhs.contains('.')
        && env
            .locals
            .contains_key(lhs.split('.').next().unwrap_or_default())
    {
        let (base, fspec) = lhs.split_once('.').expect("checked");
        let base_l = env.existing(base, line)?;
        let field = resolve_field_spec(mb, env, base_l, fspec.trim(), line)?;
        let op = parse_operand(mb, env, rhs, line)?;
        mb.store(base_l, field, op);
        return Ok(false);
    }
    if lhs.contains('.') {
        return err(line, format!("unknown store target {lhs:?}"));
    }

    // Destination local assignments.
    if let Some(rest) = rhs.strip_prefix("new ") {
        let cname = rest.trim();
        let c = mb.program().find_class(cname).ok_or(AsmError {
            line,
            message: format!("unknown class {cname}"),
        })?;
        let dst = env.local(mb, lhs);
        mb.new_(dst, c);
        env.types.insert(dst, c);
        return Ok(false);
    }
    if rhs.starts_with("call ") {
        let dst = env.local(mb, lhs);
        let ret_class = assemble_call(mb, env, Some(dst), rhs, line)?;
        if let Some(c) = ret_class {
            env.types.insert(dst, c);
        }
        return Ok(false);
    }
    if let Some(rest) = rhs.strip_prefix('!') {
        let src = parse_operand(mb, env, rest, line)?;
        let dst = env.local(mb, lhs);
        mb.un_op(dst, UnOp::Not, src);
        return Ok(false);
    }
    if let Some(rest) = rhs.strip_prefix("- ") {
        let src = parse_operand(mb, env, rest, line)?;
        let dst = env.local(mb, lhs);
        mb.un_op(dst, UnOp::Neg, src);
        return Ok(false);
    }
    // Binary operators (space-separated: `a == b`).
    for (sym, op) in [
        ("==", BinOp::Cmp(CmpOp::Eq)),
        ("!=", BinOp::Cmp(CmpOp::Ne)),
        ("<=", BinOp::Cmp(CmpOp::Le)),
        ("<", BinOp::Cmp(CmpOp::Lt)),
        ("&&", BinOp::And),
        ("||", BinOp::Or),
        ("+", BinOp::Add),
        ("-", BinOp::Sub),
        ("*", BinOp::Mul),
    ] {
        let pat = format!(" {sym} ");
        if let Some(idx) = rhs.find(&pat) {
            let a = parse_operand(mb, env, &rhs[..idx], line)?;
            let b = parse_operand(mb, env, &rhs[idx + pat.len()..], line)?;
            let dst = env.local(mb, lhs);
            mb.bin_op(dst, op, a, b);
            return Ok(false);
        }
    }
    // Loads: `x = y.field` / `x = Class::field`.
    if let Some((cname, fname)) = rhs.split_once("::") {
        let field = resolve_static_field(mb, cname.trim(), fname.trim(), line)?;
        let dst = env.local(mb, lhs);
        mb.static_load(dst, field);
        note_field_type(mb, env, dst, field);
        return Ok(false);
    }
    if let Some((base, fspec)) = rhs.split_once('.') {
        if env.locals.contains_key(base) {
            let base_l = env.existing(base, line)?;
            let field = resolve_field_spec(mb, env, base_l, fspec.trim(), line)?;
            let dst = env.local(mb, lhs);
            mb.load(dst, base_l, field);
            note_field_type(mb, env, dst, field);
            return Ok(false);
        }
    }
    // Plain copy or constant.
    match parse_operand(mb, env, rhs, line)? {
        Operand::Local(src) => {
            let dst = env.local(mb, lhs);
            mb.move_(dst, src);
            if let Some(&c) = env.types.get(&src) {
                env.types.insert(dst, c);
            }
        }
        Operand::Const(c) => {
            let dst = env.local(mb, lhs);
            mb.const_(dst, c);
        }
    }
    Ok(false)
}

/// The local a body line assigns, if any: a bare name left of its `=`.
fn assigned_local(line: &str) -> Option<&str> {
    let lhs = split_assign(line)?.0.trim();
    let bare = lhs.chars().all(|c| c.is_alphanumeric() || c == '_');
    bare.then_some(lhs)
}

/// Splits `lhs = rhs` at the first `=` that is an assignment (not part of
/// `==`, `!=`, or `<=`).
fn split_assign(text: &str) -> Option<(&str, &str)> {
    let bytes = text.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'=' {
            continue;
        }
        let prev = if i > 0 { bytes[i - 1] } else { b' ' };
        let next = bytes.get(i + 1).copied().unwrap_or(b' ');
        if prev != b'=' && prev != b'!' && prev != b'<' && next != b'=' {
            return Some((&text[..i], &text[i + 1..]));
        }
    }
    None
}

fn block_of(env: &Env, label: &str, line: usize) -> Result<BlockId, AsmError> {
    env.blocks.get(label).copied().ok_or(AsmError {
        line,
        message: format!("unknown block label {label}"),
    })
}

fn resolve_static_field(
    mb: &mut MethodBuilder<'_>,
    cname: &str,
    fname: &str,
    line: usize,
) -> Result<FieldId, AsmError> {
    let class = mb.program().find_class(cname).ok_or(AsmError {
        line,
        message: format!("unknown class {cname}"),
    })?;
    let mut cur = Some(class);
    while let Some(c) = cur {
        if let Some(f) = mb.program().find_field(c, fname) {
            return Ok(f);
        }
        cur = mb.program().super_class_of(c);
    }
    err(line, format!("unknown static field {cname}::{fname}"))
}

/// Resolves a field spec after the `.`: either a bare name (type-inferred
/// receiver) or the qualified `Class#field` form.
fn resolve_field_spec(
    mb: &mut MethodBuilder<'_>,
    env: &Env,
    base: Local,
    spec: &str,
    line: usize,
) -> Result<FieldId, AsmError> {
    if let Some((cname, fname)) = spec.rsplit_once('#') {
        let class = mb.program().find_class(cname.trim()).ok_or(AsmError {
            line,
            message: format!("unknown class {cname}"),
        })?;
        let mut cur = Some(class);
        while let Some(c) = cur {
            if let Some(f) = mb.program().find_field(c, fname.trim()) {
                return Ok(f);
            }
            cur = mb.program().super_class_of(c);
        }
        return err(line, format!("unknown field {cname}#{fname}"));
    }
    field_of_local(mb, env, base, spec, line)
}

fn field_of_local(
    mb: &mut MethodBuilder<'_>,
    env: &Env,
    base: Local,
    fname: &str,
    line: usize,
) -> Result<FieldId, AsmError> {
    let class = *env.types.get(&base).ok_or(AsmError {
        line,
        message: format!("cannot infer class of receiver for .{fname}; annotate the source"),
    })?;
    let mut cur = Some(class);
    while let Some(c) = cur {
        if let Some(f) = mb.program().find_field(c, fname) {
            return Ok(f);
        }
        cur = mb.program().super_class_of(c);
    }
    err(line, format!("unknown field .{fname}"))
}

fn note_field_type(mb: &mut MethodBuilder<'_>, env: &mut Env, dst: Local, field: FieldId) {
    if let Type::Ref(c) = mb.program().field_type_of(field) {
        env.types.insert(dst, c);
    }
}

/// `call virtual|static|special Class.method(args…)`; returns the callee's
/// declared return class for type inference.
fn assemble_call(
    mb: &mut MethodBuilder<'_>,
    env: &mut Env,
    dst: Option<Local>,
    text: &str,
    line: usize,
) -> Result<Option<ClassId>, AsmError> {
    let rest = text.strip_prefix("call ").expect("caller checked");
    let mut toks = rest.splitn(2, ' ');
    let kind = match toks.next() {
        Some("virtual") => InvokeKind::Virtual,
        Some("static") => InvokeKind::Static,
        Some("special") => InvokeKind::Special,
        other => {
            return err(
                line,
                format!("expected virtual|static|special, got {other:?}"),
            )
        }
    };
    let rest = toks
        .next()
        .ok_or(AsmError {
            line,
            message: "call needs a target".into(),
        })?
        .trim();
    let (target, args_text) = rest.split_once('(').ok_or(AsmError {
        line,
        message: "call needs `(args)`".into(),
    })?;
    let args_text = args_text.trim_end_matches(')');
    let callee = {
        let (cname, mname) = target.rsplit_once('.').ok_or(AsmError {
            line,
            message: format!("expected Class.method, got {target:?}"),
        })?;
        let class = mb.program().find_class(cname.trim()).ok_or(AsmError {
            line,
            message: format!("unknown class {cname}"),
        })?;
        let mut found = None;
        let mut cur = Some(class);
        while let Some(c) = cur {
            if let Some(m) = mb.program().find_method(c, mname.trim()) {
                found = Some(m);
                break;
            }
            cur = mb.program().super_class_of(c);
        }
        found.ok_or(AsmError {
            line,
            message: format!("unknown method {target}"),
        })?
    };
    let mut args: Vec<Operand> = Vec::new();
    for a in args_text
        .split(',')
        .map(str::trim)
        .filter(|a| !a.is_empty())
    {
        args.push(parse_operand(mb, env, a, line)?);
    }
    let expected = mb.program().param_count(callee) as usize;
    let (receiver, args) = match kind {
        InvokeKind::Static => (None, args),
        _ => {
            if args.is_empty() {
                return err(line, "instance call needs a receiver as first argument");
            }
            let recv = match args.remove(0) {
                Operand::Local(l) => l,
                Operand::Const(_) => return err(line, "receiver must be a local"),
            };
            (Some(recv), args)
        }
    };
    let given = args.len() + usize::from(receiver.is_some());
    if given != expected {
        return err(
            line,
            format!("{target:?} takes {expected} argument(s), got {given}"),
        );
    }
    mb.call(dst, kind, callee, receiver, args);
    Ok(mb.program().ret_type_of(callee).and_then(|t| t.as_class()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const NEWS_APP: &str = r#"
// Figure 1, as assembler text.
class com.ex.Adapter extends android.widget.Adapter {
  field data: ref java.lang.Object
}
class com.ex.Loader extends android.os.AsyncTask {
  field adapter: ref com.ex.Adapter
  method doInBackground(this) {
    bb0:
      a = this.adapter
      n = new java.lang.Object
      a.data = n
      return
  }
}
class com.ex.Main extends android.app.Activity
      implements android.view.View$OnClickListener, android.widget.OnScrollListener {
  field adapter: ref com.ex.Adapter
  method onCreate(this) {
    bb0:
      a = new com.ex.Adapter
      this.adapter = a
      v = call virtual android.app.Activity.findViewById(this, 1)
      call virtual android.view.View.setOnClickListener(v, this)
      call virtual android.view.View.setOnScrollListener(v, this)
      return
  }
  method onClick(this, view) {
    bb0:
      a = this.adapter
      t = new com.ex.Loader
      t.adapter = a
      call virtual android.os.AsyncTask.execute(t)
      return
  }
  method onScroll(this, view) {
    bb0:
      a = this.adapter
      x = a.data
      return
  }
}
layout com.ex.Main {
  view 1: android.widget.TextView
}
"#;

    #[test]
    fn assembles_the_figure_1_app() {
        let app = parse_app("AsmNews", NEWS_APP).expect("assembles");
        assert!(app.program.validate().is_ok());
        assert_eq!(app.manifest.activities.len(), 1);
        let main = app.program.class_by_name("com.ex.Main").unwrap();
        assert_eq!(app.manifest.activities[0], main);
        assert!(app.layout_for(main).is_some());
        // And the whole pipeline runs over the assembled app.
        let result_fields = harness_gen_generate(app);
        assert!(
            result_fields.contains(&"data".to_owned()),
            "{result_fields:?}"
        );
    }

    /// Helper: run the detector over an assembled app, returning reported
    /// field names. (Inline to avoid a dev-dependency cycle with
    /// sierra-core; the pointer+shbg layers are enough to see the race
    /// pair, so we count unordered conflicting accesses directly.)
    fn harness_gen_generate(app: AndroidApp) -> Vec<String> {
        // The android-model crate cannot depend on the analysis crates;
        // approximate "the race is visible" structurally: the Loader's
        // doInBackground writes com.ex.Adapter.data and Main.onScroll reads
        // it — both bodies must exist and reference the same field.
        let adapter = app.program.class_by_name("com.ex.Adapter").unwrap();
        let data = app.program.declared_field(adapter, "data").unwrap();
        let mut touched = Vec::new();
        for m in app.program.methods() {
            if !m.has_body() {
                continue;
            }
            for (_, s) in m.iter_stmts() {
                if let apir::Stmt::Load { field, .. } | apir::Stmt::Store { field, .. } = s {
                    if *field == data {
                        touched.push(app.program.field_name(*field).to_owned());
                    }
                }
            }
        }
        touched
    }

    #[test]
    fn control_flow_and_operators_assemble() {
        let src = r#"
class com.ex.Act extends android.app.Activity {
  field flag: bool
  field count: int
  method onCreate(this) {
    bb0:
      t = this.flag
      if t then bb1 else bb2
    bb1:
      c = this.count
      c2 = c + 1
      this.count = c2
      goto bb3
    bb2:
      eq = c3 == 4
      goto bb3
    bb3:
      nondet bb4 bb5
    bb4:
      return
    bb5:
      return
  }
}
"#;
        // `c3` is used unassigned in bb2 — must be rejected.
        let e = parse_app("Bad", src).unwrap_err();
        assert!(e.message.contains("unassigned local"), "{e}");

        let fixed = src.replace("eq = c3 == 4", "c3 = 4\n      eq = c3 == 4");
        let app = parse_app("Good", &fixed).expect("assembles");
        assert!(app.program.validate().is_ok());
    }

    #[test]
    fn static_fields_and_static_calls_assemble() {
        let src = r#"
class com.ex.Util {
  field static G: int
  method bump() static {
    bb0:
      g = com.ex.Util::G
      g2 = g + 1
      com.ex.Util::G = g2
      return
  }
}
class com.ex.Act extends android.app.Activity {
  method onCreate(this) {
    bb0:
      call static com.ex.Util.bump()
      m = call static android.os.Message.obtain()
      return
  }
}
"#;
        let app = parse_app("Statics", src).expect("assembles");
        assert!(app.program.validate().is_ok());
    }

    #[test]
    fn error_messages_carry_line_numbers() {
        let src = "class A extends NoSuchClass {\n}\n";
        let e = parse_app("E", src).unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.to_string().contains("unknown class NoSuchClass"));

        let src = "class A {\n  method m(this) {\n    bb0:\n      x = y.field\n  }\n}\n";
        let e = parse_app("E", src).unwrap_err();
        assert_eq!(e.line, 4);

        let src = "bogus\n";
        let e = parse_app("E", src).unwrap_err();
        assert!(e.message.contains("expected `class`"));
    }

    #[test]
    fn arity_mismatches_are_rejected() {
        let src = r#"
class com.ex.Act extends android.app.Activity {
  method onCreate(this) {
    bb0:
      v = call virtual android.app.Activity.findViewById(this)
      return
  }
}
"#;
        let e = parse_app("E", src).unwrap_err();
        assert!(e.message.contains("argument"), "{e}");
    }

    #[test]
    fn view_attributes_parse() {
        let src = r#"
class com.ex.Act extends android.app.Activity {
  method clicked(this, v) {
    bb0:
      return
  }
}
layout com.ex.Act {
  view 1: android.view.View onClick com.ex.Act.clicked
  view 2: android.widget.TextView after 1
}
"#;
        let app = parse_app("Views", src).expect("assembles");
        let act = app.program.class_by_name("com.ex.Act").unwrap();
        let layout = app.layout_for(act).unwrap();
        assert_eq!(layout.view(2).unwrap().after, Some(1));
        assert_eq!(layout.view(1).unwrap().xml_listeners.len(), 1);
    }
}

// ---- rendering (the disassembler) ----

/// Renders an app back to assembler text that [`parse_app`] accepts.
///
/// Only app-origin classes are rendered (the framework is implicit).
/// A component subclass the manifest does not declare is marked
/// `unlisted`. Locals are written as `p0…`/`v0…`; blocks as `bb0…`;
/// string constants as quoted literals with every character outside
/// `[A-Za-z0-9._$-]` escaped as `\u{hex}`.
pub fn render_app(app: &AndroidApp) -> String {
    use std::fmt::Write as _;
    let (p, fw, m) = (&app.program, &app.framework, &app.manifest);
    let components = [fw.activity, fw.broadcast_receiver, fw.service];
    let listed = [&m.activities, &m.receivers, &m.services];
    let mut out = String::new();
    for class in p.classes() {
        if class.origin != apir::Origin::App {
            continue;
        }
        let component = components.iter().any(|&c| p.is_subtype(class.id, c));
        if component && !listed.iter().any(|l| l.contains(&class.id)) {
            out.push_str("unlisted ");
        }
        let kw = if class.is_interface {
            "interface"
        } else {
            "class"
        };
        let _ = write!(out, "{kw} {}", p.name(class.name));
        if let Some(s) = class.super_class {
            if p.class_name(s) != "java.lang.Object" {
                let _ = write!(out, " extends {}", p.class_name(s));
            }
        }
        if !class.interfaces.is_empty() {
            let names: Vec<&str> = class.interfaces.iter().map(|&i| p.class_name(i)).collect();
            let _ = write!(out, " implements {}", names.join(", "));
        }
        let _ = writeln!(out, " {{");
        for &f in &class.fields {
            let fd = p.field(f);
            let st = if fd.is_static { "static " } else { "" };
            let ty = match fd.ty {
                Type::Int => "int".to_owned(),
                Type::Bool => "bool".to_owned(),
                Type::Str => "str".to_owned(),
                Type::Ref(c) => format!("ref {}", p.class_name(c)),
            };
            let _ = writeln!(out, "  field {st}{}: {ty}", p.name(fd.name));
        }
        for &mid in &class.methods {
            let m = p.method(mid);
            if !m.has_body() {
                continue;
            }
            let params: Vec<String> = (0..m.param_count)
                .map(|i| {
                    if i == 0 && !m.is_static {
                        "this".to_owned()
                    } else {
                        format!("p{i}")
                    }
                })
                .collect();
            let st = if m.is_static { " static" } else { "" };
            let _ = writeln!(
                out,
                "  method {}({}){st} {{",
                p.name(m.name),
                params.join(", ")
            );
            for (bid, block) in m.iter_blocks() {
                let _ = writeln!(out, "    bb{}:", bid.index());
                for stmt in &block.stmts {
                    let _ = writeln!(out, "      {}", render_stmt(p, m, stmt));
                }
                let _ = writeln!(out, "      {}", render_terminator(p, m, &block.terminator));
            }
            let _ = writeln!(out, "  }}");
        }
        let _ = writeln!(out, "}}");
    }
    for layout in &app.layouts {
        let _ = writeln!(out, "layout {} {{", p.class_name(layout.activity));
        for v in &layout.views {
            let mut line = format!("  view {}: {}", v.view_id, p.class_name(v.class));
            if let Some(a) = v.after {
                line.push_str(&format!(" after {a}"));
            }
            for (kind, m) in &v.xml_listeners {
                if *kind == GuiEventKind::Click {
                    line.push_str(&format!(" onClick {}", p.method_name(*m)));
                }
            }
            let _ = writeln!(out, "{line}");
        }
        let _ = writeln!(out, "}}");
    }
    out
}

/// Unqualified for `this` (always inferable); qualified `Class#field`
/// otherwise, so re-parsing never depends on type inference succeeding.
fn render_field_spec(p: &apir::Program, m: &apir::Method, base: Local, field: FieldId) -> String {
    let fd = p.field(field);
    if base.0 == 0 && !m.is_static {
        p.name(fd.name).to_owned()
    } else {
        format!("{}#{}", p.class_name(fd.class), p.name(fd.name))
    }
}

fn render_local(m: &apir::Method, l: Local) -> String {
    if l.0 == 0 && !m.is_static {
        "this".to_owned()
    } else if l.0 < m.param_count {
        format!("p{}", l.0)
    } else {
        format!("v{}", l.0)
    }
}

fn render_operand(p: &apir::Program, m: &apir::Method, op: Operand) -> String {
    match op {
        Operand::Local(l) => render_local(m, l),
        Operand::Const(ConstValue::Int(v)) => v.to_string(),
        Operand::Const(ConstValue::Bool(b)) => b.to_string(),
        Operand::Const(ConstValue::Null) => "null".to_owned(),
        Operand::Const(ConstValue::Str(s)) => escape(p.name(s)),
    }
}

fn render_stmt(p: &apir::Program, m: &apir::Method, stmt: &apir::Stmt) -> String {
    use apir::Stmt as S;
    match stmt {
        S::Const { dst, value } => {
            format!(
                "{} = {}",
                render_local(m, *dst),
                render_operand(p, m, Operand::Const(*value))
            )
        }
        S::Move { dst, src } => {
            format!("{} = {}", render_local(m, *dst), render_local(m, *src))
        }
        S::UnOp { dst, op, src } => {
            let sym = match op {
                UnOp::Not => "!",
                UnOp::Neg => "- ",
            };
            format!(
                "{} = {sym}{}",
                render_local(m, *dst),
                render_operand(p, m, *src)
            )
        }
        S::BinOp { dst, op, lhs, rhs } => {
            let sym = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Cmp(CmpOp::Eq) => "==",
                BinOp::Cmp(CmpOp::Ne) => "!=",
                BinOp::Cmp(CmpOp::Lt) => "<",
                BinOp::Cmp(CmpOp::Le) => "<=",
                BinOp::And => "&&",
                BinOp::Or => "||",
            };
            format!(
                "{} = {} {sym} {}",
                render_local(m, *dst),
                render_operand(p, m, *lhs),
                render_operand(p, m, *rhs)
            )
        }
        S::New { dst, class, .. } => {
            format!("{} = new {}", render_local(m, *dst), p.class_name(*class))
        }
        S::Load { dst, obj, field } => format!(
            "{} = {}.{}",
            render_local(m, *dst),
            render_local(m, *obj),
            render_field_spec(p, m, *obj, *field)
        ),
        S::Store { obj, field, value } => format!(
            "{}.{} = {}",
            render_local(m, *obj),
            render_field_spec(p, m, *obj, *field),
            render_operand(p, m, *value)
        ),
        S::StaticLoad { dst, field } => {
            let f = p.field(*field);
            format!(
                "{} = {}::{}",
                render_local(m, *dst),
                p.class_name(f.class),
                p.name(f.name)
            )
        }
        S::StaticStore { field, value } => {
            let f = p.field(*field);
            format!(
                "{}::{} = {}",
                p.class_name(f.class),
                p.name(f.name),
                render_operand(p, m, *value)
            )
        }
        S::Call {
            dst,
            kind,
            callee,
            receiver,
            args,
            ..
        } => {
            let mut s = String::new();
            if let Some(d) = dst {
                s.push_str(&format!("{} = ", render_local(m, *d)));
            }
            let kw = match kind {
                InvokeKind::Virtual => "virtual",
                InvokeKind::Static => "static",
                InvokeKind::Special => "special",
            };
            let mut all: Vec<String> = Vec::new();
            if let Some(r) = receiver {
                all.push(render_local(m, *r));
            }
            all.extend(args.iter().map(|a| render_operand(p, m, *a)));
            s.push_str(&format!(
                "call {kw} {}({})",
                p.method_name(*callee),
                all.join(", ")
            ));
            s
        }
    }
}

fn render_terminator(p: &apir::Program, m: &apir::Method, t: &apir::Terminator) -> String {
    use apir::Terminator as T;
    match t {
        T::Goto(b) => format!("goto bb{}", b.index()),
        T::If {
            cond,
            then_bb,
            else_bb,
        } => {
            format!(
                "if {} then bb{} else bb{}",
                render_operand(p, m, *cond),
                then_bb.index(),
                else_bb.index()
            )
        }
        T::NonDet(targets) => {
            let list: Vec<String> = targets.iter().map(|b| format!("bb{}", b.index())).collect();
            format!("nondet {}", list.join(" "))
        }
        T::Return(None) => "return".to_owned(),
        T::Return(Some(op)) => format!("return {}", render_operand(p, m, *op)),
    }
}

#[cfg(test)]
mod render_tests {
    use super::*;

    const ROUND_TRIP_SRC: &str = r#"
class com.rt.Helper {
  field static G: int
  field val: int
}
class com.rt.Main extends android.app.Activity
      implements android.view.View$OnClickListener {
  field h: ref com.rt.Helper
  method onCreate(this) {
    bb0:
      h = new com.rt.Helper
      this.h = h
      h.val = 3
      com.rt.Helper::G = 4
      v = call virtual android.app.Activity.findViewById(this, 2)
      call virtual android.view.View.setOnClickListener(v, this)
      t = h.val
      c = t == 3
      if c then bb1 else bb2
    bb1:
      goto bb3
    bb2:
      goto bb3
    bb3:
      nondet bb4 bb5
    bb4:
      return
    bb5:
      return
  }
  method onClick(this, view) {
    bb0:
      h = this.h
      x = h.val
      return x
  }
}
layout com.rt.Main {
  view 2: android.widget.TextView
}
"#;

    #[test]
    fn render_parse_round_trip_is_structurally_stable() {
        let app1 = parse_app("RT", ROUND_TRIP_SRC).expect("first parse");
        let text1 = render_app(&app1);
        let app2 = parse_app("RT", &text1).expect("re-parse of rendered text:\n{text1}");
        let text2 = render_app(&app2);
        assert_eq!(text1, text2, "render∘parse is a fixpoint");
        assert_eq!(app1.program.stmt_count(), app2.program.stmt_count());
        assert_eq!(
            app1.manifest.activities.len(),
            app2.manifest.activities.len()
        );
        assert_eq!(app1.layouts.len(), app2.layouts.len());
    }

    #[test]
    fn string_literals_round_trip_through_text() {
        let tricky = "a b,c(d)=e::f//g\"h\\i é";
        let src = format!(
            "class com.s.Main extends android.app.Activity {{\n\
             field static name: str\n\
             method onCreate(this) {{\n\
             bb0:\n\
             x = \"com.example.Target\"\n\
             com.s.Main::name = {}\n\
             return x\n\
             }}\n\
             }}\n",
            escape(tricky)
        );
        let app = parse_app("Str", &src).expect("literals parse");
        let strings = |app: &AndroidApp| -> Vec<String> {
            let p = &app.program;
            let mut out = Vec::new();
            for (_, stmt) in p.methods().iter().flat_map(|m| m.iter_stmts()) {
                match stmt {
                    apir::Stmt::Const {
                        value: ConstValue::Str(s),
                        ..
                    }
                    | apir::Stmt::StaticStore {
                        value: Operand::Const(ConstValue::Str(s)),
                        ..
                    } => out.push(p.name(*s).to_owned()),
                    _ => {}
                }
            }
            out
        };
        assert_eq!(strings(&app), ["com.example.Target", tricky]);
        let text = render_app(&app);
        let again = parse_app("Str", &text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(strings(&again), strings(&app));
        assert_eq!(render_app(&again), text, "render∘parse is a fixpoint");

        for bad in ["\"open", "\"a\"b\"", "\"\\q\"", "\"\\u{zz}\""] {
            let src = src.replace("\"com.example.Target\"", bad);
            assert!(parse_app("Str", &src).is_err(), "{bad} must not parse");
        }
    }

    #[test]
    fn rendered_corpus_figures_reassemble_and_validate() {
        for (label, (app, _)) in [
            ("fig1", crate_figures_intra()),
            ("fig8", crate_figures_guard()),
        ] {
            let text = render_app(&app);
            let app2 =
                parse_app("RoundTrip", &text).unwrap_or_else(|e| panic!("{label}: {e}\n{text}"));
            assert!(app2.program.validate().is_ok(), "{label}");
            assert_eq!(
                app.manifest.activities.len(),
                app2.manifest.activities.len(),
                "{label}"
            );
        }
    }

    // Local copies of two corpus figure shapes (corpus depends on this
    // crate, so the fixtures are re-declared via the builder here).
    fn crate_figures_intra() -> (AndroidApp, ()) {
        let mut b = AndroidAppBuilder::new("F1");
        let fw = b.framework().clone();
        let mut cb = b.subclass("A$Adapter", fw.adapter);
        let data = cb.field("data", Type::Ref(fw.object));
        let adapter = cb.build();
        let mut cb = b.activity("A");
        cb.add_interface(fw.on_scroll_listener);
        let af = cb.field("adapter", Type::Ref(adapter));
        let act = cb.build();
        let mut mb = b.method(act, "onCreate");
        mb.set_param_count(1);
        let this = mb.param(0);
        let a = mb.fresh_local();
        mb.new_(a, adapter);
        mb.store(this, af, Operand::Local(a));
        mb.ret(None);
        mb.finish();
        let mut mb = b.method(act, "onScroll");
        mb.set_param_count(2);
        let this = mb.param(0);
        let (a, x) = (mb.fresh_local(), mb.fresh_local());
        mb.load(a, this, af);
        mb.load(x, a, data);
        mb.ret(None);
        mb.finish();
        (b.finish().unwrap(), ())
    }

    fn crate_figures_guard() -> (AndroidApp, ()) {
        let mut b = AndroidAppBuilder::new("F8");
        let mut cb = b.activity("G");
        let flag = cb.field("flag", Type::Bool);
        let act = cb.build();
        let mut mb = b.method(act, "onPause");
        mb.set_param_count(1);
        let this = mb.param(0);
        let t = mb.fresh_local();
        mb.load(t, this, flag);
        let b1 = mb.new_block();
        let b2 = mb.new_block();
        mb.if_(t, b1, b2);
        mb.switch_to(b1);
        mb.store(this, flag, Operand::Const(ConstValue::Bool(false)));
        mb.goto(b2);
        mb.switch_to(b2);
        mb.ret(None);
        mb.finish();
        (b.finish().unwrap(), ())
    }
}
