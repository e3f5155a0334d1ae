//! The analyzed unit: an Android app (program + manifest + layouts).

use crate::framework::FrameworkClasses;
use crate::gui::Layout;
use apir::{
    ClassBuilder, ClassId, MethodBuilder, Program, ProgramBuilder, SymbolArena, ValidateError,
};
use std::sync::Arc;

/// The app manifest: declared components.
#[derive(Debug, Clone, Default)]
pub struct Manifest {
    /// Declared activities (each becomes a harness).
    pub activities: Vec<ClassId>,
    /// Statically-declared broadcast receivers.
    pub receivers: Vec<ClassId>,
    /// Declared services.
    pub services: Vec<ClassId>,
}

/// A complete Android app ready for analysis.
#[derive(Debug, Clone)]
pub struct AndroidApp {
    /// Human-readable app name (e.g. `OpenSudoku`).
    pub name: String,
    /// The program (app + framework classes).
    pub program: Program,
    /// Ids of the installed framework entities.
    pub framework: FrameworkClasses,
    /// The manifest.
    pub manifest: Manifest,
    /// Resolved layout resources.
    pub layouts: Vec<Layout>,
}

impl AndroidApp {
    /// The layout declared for `activity`, if any.
    pub fn layout_for(&self, activity: ClassId) -> Option<&Layout> {
        self.layouts.iter().find(|l| l.activity == activity)
    }

    /// Resolves `findViewById(view_id)` within `activity` to the view's
    /// class, through the inflated-view map.
    pub fn view_class(&self, activity: ClassId, view_id: i32) -> Option<ClassId> {
        self.layout_for(activity)?.view(view_id).map(|v| v.class)
    }

    /// App "bytecode size": total IR statements (used in Tables 2 and 5).
    pub fn size_stmts(&self) -> usize {
        self.program.stmt_count()
    }
}

/// Builds an [`AndroidApp`]: installs the framework, tracks the manifest
/// and layouts, and exposes the underlying [`ProgramBuilder`].
///
/// # Example
///
/// ```
/// use android_model::AndroidAppBuilder;
///
/// let mut app = AndroidAppBuilder::new("Demo");
/// let main = {
///     let mut cb = app.activity("com.demo.MainActivity");
///     cb.build()
/// };
/// let fw = app.framework().clone();
/// let mut mb = app.method(main, "onCreate");
/// mb.set_param_count(1);
/// mb.ret(None);
/// mb.finish();
/// let _ = fw;
/// let app = app.finish().expect("valid app");
/// assert_eq!(app.manifest.activities, vec![main]);
/// ```
#[derive(Debug)]
pub struct AndroidAppBuilder {
    name: String,
    pb: ProgramBuilder,
    fw: FrameworkClasses,
    manifest: Manifest,
    layouts: Vec<Layout>,
}

impl AndroidAppBuilder {
    /// Creates a builder with the framework pre-installed.
    pub fn new(name: &str) -> Self {
        Self::from_program_builder(name, ProgramBuilder::new())
    }

    /// Creates a builder whose strings are interned in a shared
    /// [`SymbolArena`], so framework names are stored once per process
    /// across every app built over the same arena (corpus runs, the
    /// serve loop).
    pub fn with_arena(name: &str, arena: Arc<SymbolArena>) -> Self {
        Self::from_program_builder(name, ProgramBuilder::with_arena(arena))
    }

    fn from_program_builder(name: &str, mut pb: ProgramBuilder) -> Self {
        let fw = FrameworkClasses::install(&mut pb);
        Self {
            name: name.to_owned(),
            pb,
            fw,
            manifest: Manifest::default(),
            layouts: Vec::new(),
        }
    }

    /// The installed framework ids.
    pub fn framework(&self) -> &FrameworkClasses {
        &self.fw
    }

    /// Mutable access to the underlying program builder.
    pub fn program_builder(&mut self) -> &mut ProgramBuilder {
        &mut self.pb
    }

    /// Begins an activity class (super = `android.app.Activity`) and
    /// registers it in the manifest.
    pub fn activity(&mut self, name: &str) -> ClassBuilder<'_> {
        let sup = self.fw.activity;
        let mut cb = self.pb.class(name, apir::Origin::App);
        cb.set_super(sup);
        self.manifest.activities.push(cb.id());
        cb
    }

    /// Begins a broadcast-receiver class and registers it in the manifest.
    pub fn receiver(&mut self, name: &str) -> ClassBuilder<'_> {
        let sup = self.fw.broadcast_receiver;
        let mut cb = self.pb.class(name, apir::Origin::App);
        cb.set_super(sup);
        self.manifest.receivers.push(cb.id());
        cb
    }

    /// Begins a service class and registers it in the manifest.
    pub fn service(&mut self, name: &str) -> ClassBuilder<'_> {
        let sup = self.fw.service;
        let mut cb = self.pb.class(name, apir::Origin::App);
        cb.set_super(sup);
        self.manifest.services.push(cb.id());
        cb
    }

    /// Begins an app class extending `super_class` (not a component).
    pub fn subclass(&mut self, name: &str, super_class: ClassId) -> ClassBuilder<'_> {
        let mut cb = self.pb.class(name, apir::Origin::App);
        cb.set_super(super_class);
        cb
    }

    /// Begins a method body on `class`.
    pub fn method(&mut self, class: ClassId, name: &str) -> MethodBuilder<'_> {
        self.pb.method(class, name)
    }

    /// Registers a layout.
    pub fn add_layout(&mut self, layout: Layout) -> &mut Self {
        self.layouts.push(layout);
        self
    }

    /// Registers an already-declared class in the manifest according to its
    /// (current) superclass chain — used by frontends that wire hierarchies
    /// after declaring classes. Non-component classes are ignored.
    pub fn register_component(&mut self, class: ClassId) {
        if self.pb.is_subtype_now(class, self.fw.activity) {
            self.manifest.activities.push(class);
        } else if self.pb.is_subtype_now(class, self.fw.broadcast_receiver) {
            self.manifest.receivers.push(class);
        } else if self.pb.is_subtype_now(class, self.fw.service) {
            self.manifest.services.push(class);
        }
    }

    /// Declares a plain class with no superclass wiring (the frontend sets
    /// it later via [`apir::ProgramBuilder::set_super_of`]).
    pub fn bare_class(&mut self, name: &str) -> ClassId {
        let object = self.fw.object;
        let mut cb = self.pb.class(name, apir::Origin::App);
        cb.set_super(object);
        cb.build()
    }

    /// Finalizes and validates the app.
    ///
    /// # Errors
    ///
    /// Returns the first IR well-formedness violation, if any.
    pub fn finish(self) -> Result<AndroidApp, ValidateError> {
        let program = self.pb.finish();
        program.validate()?;
        Ok(AndroidApp {
            name: self.name,
            program,
            framework: self.fw,
            manifest: self.manifest,
            layouts: self.layouts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gui::ViewDecl;

    #[test]
    fn builds_an_app_with_components_and_layouts() {
        let mut app = AndroidAppBuilder::new("T");
        let main = app.activity("Main").build();
        let recv = app.receiver("Recv").build();
        let svc = app.service("Svc").build();
        let view_class = app.framework().text_view;
        let mut layout = Layout::new(main);
        layout.add_view(ViewDecl::new(1, view_class));
        app.add_layout(layout);
        let mut mb = app.method(main, "onCreate");
        mb.set_param_count(1);
        mb.ret(None);
        mb.finish();
        let app = app.finish().unwrap();
        assert_eq!(app.manifest.activities, vec![main]);
        assert_eq!(app.manifest.receivers, vec![recv]);
        assert_eq!(app.manifest.services, vec![svc]);
        assert_eq!(app.view_class(main, 1), Some(view_class));
        assert_eq!(app.view_class(main, 2), None);
        assert!(app.size_stmts() > 0);
        assert_eq!(app.name, "T");
    }

    #[test]
    fn component_superclasses_are_wired() {
        let mut app = AndroidAppBuilder::new("T");
        let main = app.activity("Main").build();
        let recv = app.receiver("Recv").build();
        let fw = app.framework().clone();
        let app = app.finish().unwrap();
        assert!(app.program.is_subtype(main, fw.activity));
        assert!(app.program.is_subtype(recv, fw.broadcast_receiver));
    }
}
