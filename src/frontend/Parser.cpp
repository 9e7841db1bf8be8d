//===- frontend/Parser.cpp - Textual IR parser ----------------------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"

#include "frontend/Lexer.h"
#include "ir/ProgramBuilder.h"

#include <map>
#include <optional>
#include <tuple>

using namespace intro;

namespace {

/// Structural (syntax-only) representation collected in the first pass.
struct MethodDecl {
  std::string Name;
  std::vector<std::string> Params;
  std::string ReturnName; ///< Empty if the method has no `->` clause.
  bool IsStatic = false;
  bool IsEntry = false;
  uint32_t Line = 0;
  size_t BodyBegin = 0; ///< Token index just after the body's '{'.
  size_t BodyEnd = 0;   ///< Token index of the body's '}'.
};

struct ClassDecl {
  std::string Name;
  std::string Super; ///< Empty for hierarchy roots.
  std::vector<std::string> Fields;
  std::vector<MethodDecl> Methods;
  uint32_t Line = 0;
};

class Parser {
public:
  explicit Parser(std::string_view Source) : Tokens(tokenize(Source)) {}

  ParseResult run() {
    parseStructure();
    if (Errors.empty())
      buildDeclarations();
    if (Errors.empty())
      buildBodies();
    ParseResult Result;
    if (Errors.empty())
      Result.Prog = Builder.take();
    Result.Errors = std::move(Errors);
    return Result;
  }

private:
  // --- Token helpers ----------------------------------------------------

  const Token &peek(size_t Ahead = 0) const {
    size_t Index = Pos + Ahead;
    return Index < Tokens.size() ? Tokens[Index] : Tokens.back();
  }
  const Token &advance() {
    const Token &T = peek();
    if (Pos + 1 < Tokens.size())
      ++Pos;
    return T;
  }
  bool at(TokenKind Kind) const { return peek().Kind == Kind; }
  bool atWord(std::string_view Word) const {
    return at(TokenKind::Identifier) && peek().Text == Word;
  }
  bool eat(TokenKind Kind) {
    if (!at(Kind))
      return false;
    advance();
    return true;
  }
  bool eatWord(std::string_view Word) {
    if (!atWord(Word))
      return false;
    advance();
    return true;
  }

  void error(std::string Message) {
    Errors.push_back("line " + std::to_string(peek().Line) + ": " +
                     std::move(Message));
  }

  /// Expects an identifier; returns its text or empty on error.
  std::string expectIdent(const char *What) {
    if (!at(TokenKind::Identifier)) {
      error(std::string("expected ") + What);
      return "";
    }
    return std::string(advance().Text);
  }

  // --- Pass 1: structure -------------------------------------------------

  void parseStructure() {
    while (!at(TokenKind::EndOfFile) && Errors.empty()) {
      if (at(TokenKind::Error)) {
        error("unexpected character '" + std::string(peek().Text) + "'");
        return;
      }
      if (!eatWord("class")) {
        error("expected 'class'");
        return;
      }
      ClassDecl Decl;
      Decl.Line = peek().Line;
      Decl.Name = expectIdent("class name");
      if (eatWord("extends"))
        Decl.Super = expectIdent("superclass name");
      if (eat(TokenKind::LBrace)) {
        while (!at(TokenKind::RBrace) && !at(TokenKind::EndOfFile) &&
               Errors.empty())
          parseMember(Decl);
        if (!eat(TokenKind::RBrace))
          error("expected '}' closing class " + Decl.Name);
      }
      Classes.push_back(std::move(Decl));
    }
  }

  void parseMember(ClassDecl &Decl) {
    if (eatWord("field")) {
      Decl.Fields.push_back(expectIdent("field name"));
      return;
    }
    MethodDecl Method;
    Method.Line = peek().Line;
    Method.IsEntry = eatWord("entry");
    Method.IsStatic = eatWord("static");
    if (!eatWord("method")) {
      error("expected 'field' or 'method' in class " + Decl.Name);
      return;
    }
    Method.Name = expectIdent("method name");
    if (!eat(TokenKind::LParen)) {
      error("expected '(' after method name");
      return;
    }
    if (!at(TokenKind::RParen)) {
      do {
        Method.Params.push_back(expectIdent("parameter name"));
      } while (eat(TokenKind::Comma));
    }
    if (!eat(TokenKind::RParen)) {
      error("expected ')' after parameter list");
      return;
    }
    if (eat(TokenKind::Arrow))
      Method.ReturnName = expectIdent("return variable name");
    if (!eat(TokenKind::LBrace)) {
      error("expected '{' starting method body");
      return;
    }
    // Record the body's token span; statements contain no nested braces.
    Method.BodyBegin = Pos;
    while (!at(TokenKind::RBrace) && !at(TokenKind::EndOfFile)) {
      if (at(TokenKind::Error)) {
        error("unexpected character '" + std::string(peek().Text) +
              "' in method " + Method.Name);
        return;
      }
      advance();
    }
    Method.BodyEnd = Pos;
    if (!eat(TokenKind::RBrace)) {
      error("expected '}' closing method " + Method.Name);
      return;
    }
    Decl.Methods.push_back(std::move(Method));
  }

  // --- Pass 2: declarations ------------------------------------------------

  void buildDeclarations() {
    // Add classes in an order compatible with their extends edges.
    std::map<std::string, TypeId> TypeByName;
    size_t Added = 0;
    std::vector<bool> Done(Classes.size(), false);
    while (Added < Classes.size()) {
      bool Progress = false;
      for (size_t Index = 0; Index < Classes.size(); ++Index) {
        if (Done[Index])
          continue;
        const ClassDecl &Decl = Classes[Index];
        if (TypeByName.count(Decl.Name)) {
          Errors.push_back("line " + std::to_string(Decl.Line) +
                           ": duplicate class '" + Decl.Name + "'");
          return;
        }
        TypeId Super;
        if (!Decl.Super.empty()) {
          auto It = TypeByName.find(Decl.Super);
          if (It == TypeByName.end())
            continue; // Superclass not added yet; retry next round.
          Super = It->second;
        }
        TypeByName[Decl.Name] = Builder.cls(Decl.Name, Super);
        Done[Index] = true;
        ++Added;
        Progress = true;
      }
      if (!Progress) {
        for (size_t Index = 0; Index < Classes.size(); ++Index)
          if (!Done[Index])
            Errors.push_back(
                "line " + std::to_string(Classes[Index].Line) + ": class '" +
                Classes[Index].Name + "' has unknown or cyclic superclass '" +
                Classes[Index].Super + "'");
        return;
      }
    }
    Types = std::move(TypeByName);

    for (const ClassDecl &Decl : Classes) {
      TypeId Owner = Types.at(Decl.Name);
      for (const std::string &Field : Decl.Fields) {
        auto Key = std::make_pair(Owner.index(), Field);
        if (FieldsByName.count(Key)) {
          Errors.push_back("duplicate field '" + Decl.Name + "#" + Field +
                           "'");
          continue;
        }
        FieldsByName[Key] = Builder.field(Owner, Field);
      }
      for (const MethodDecl &Method : Decl.Methods) {
        // Keyed like buildBody's lookup: static or not, a second m/N
        // would take over the first one's body.
        auto Arity = static_cast<uint32_t>(Method.Params.size());
        auto [Slot, Fresh] =
            MethodsByName.try_emplace({Owner.index(), Method.Name, Arity});
        if (!Fresh) {
          Errors.push_back("line " + std::to_string(Method.Line) +
                           ": duplicate method '" + Decl.Name + "." +
                           Method.Name + "/" + std::to_string(Arity) + "'");
          continue;
        }
        MethodBuilder MB = Builder.methodNamed(
            Owner, Method.Name, Method.Params, Method.IsStatic,
            Method.ReturnName);
        if (Method.IsEntry) {
          if (!Method.IsStatic)
            Errors.push_back("line " + std::to_string(Method.Line) +
                             ": entry method '" + Method.Name +
                             "' must be static");
          Builder.entry(MB.id());
        }
        Slot->second = MB.id();
      }
    }
  }

  // --- Pass 3: bodies ----------------------------------------------------------

  void buildBodies() {
    for (const ClassDecl &Decl : Classes) {
      TypeId Owner = Types.at(Decl.Name);
      for (const MethodDecl &Method : Decl.Methods)
        buildBody(Owner, Method);
    }
  }

  void buildBody(TypeId Owner, const MethodDecl &Decl) {
    MethodId Method =
        MethodsByName.at({Owner.index(), Decl.Name,
                          static_cast<uint32_t>(Decl.Params.size())});
    MethodBuilder MB = Builder.bodyOf(Method);

    // Name -> variable environment, seeded with this/formals/return.
    Vars.clear();
    const MethodInfo &Info = Builder.current().method(Method);
    if (!Info.IsStatic)
      Vars["this"] = Info.This;
    for (size_t Index = 0; Index < Decl.Params.size(); ++Index)
      Vars[Decl.Params[Index]] = Info.Formals[Index];
    if (Info.Return.isValid() && !Decl.ReturnName.empty())
      Vars[Decl.ReturnName] = Info.Return;

    Pos = Decl.BodyBegin;
    while (Pos < Decl.BodyEnd && Errors.empty())
      parseStatement(MB);
  }

  VarId getVar(MethodBuilder &MB, const std::string &Name) {
    auto [It, Inserted] = Vars.emplace(Name, VarId());
    if (Inserted)
      It->second = MB.local(Name);
    return It->second;
  }

  std::optional<TypeId> lookupType(const std::string &Name) {
    auto It = Types.find(Name);
    if (It == Types.end()) {
      error("unknown class '" + Name + "'");
      return std::nullopt;
    }
    return It->second;
  }

  /// Parses `ID "#" ID` after the dot of a load/store and resolves the
  /// field.  Assumes the class name was already consumed into \p ClassName.
  std::optional<FieldId> resolveField(const std::string &ClassName) {
    if (!eat(TokenKind::Hash)) {
      error("expected '#' in field reference");
      return std::nullopt;
    }
    std::string FieldName = expectIdent("field name");
    auto Type = lookupType(ClassName);
    if (!Type)
      return std::nullopt;
    auto It = FieldsByName.find({Type->index(), FieldName});
    if (It == FieldsByName.end()) {
      error("unknown field '" + ClassName + "#" + FieldName + "'");
      return std::nullopt;
    }
    return It->second;
  }

  std::vector<VarId> parseArgs(MethodBuilder &MB) {
    std::vector<VarId> Args;
    if (!eat(TokenKind::LParen)) {
      error("expected '(' in call");
      return Args;
    }
    if (!at(TokenKind::RParen)) {
      do {
        Args.push_back(getVar(MB, expectIdent("argument variable")));
      } while (eat(TokenKind::Comma));
    }
    if (!eat(TokenKind::RParen))
      error("expected ')' closing call");
    return Args;
  }

  /// Parses an optional trailing `catch (Type) var` clause for \p Site.
  void parseCatchClause(MethodBuilder &MB, SiteId Site) {
    if (!eatWord("catch"))
      return;
    if (!eat(TokenKind::LParen)) {
      error("expected '(' after 'catch'");
      return;
    }
    auto Type = lookupType(expectIdent("caught exception class"));
    if (!eat(TokenKind::RParen)) {
      error("expected ')' closing catch type");
      return;
    }
    VarId Var = getVar(MB, expectIdent("catch variable"));
    if (Type)
      MB.attachCatch(Site, *Type, Var);
  }

  void parseCall(MethodBuilder &MB, VarId Result, const std::string &Callee) {
    if (eat(TokenKind::Dot)) {
      // receiver.method(args)
      std::string MethodName = expectIdent("method name");
      VarId Base = getVar(MB, Callee);
      std::vector<VarId> Args = parseArgs(MB);
      SiteId Site = MB.vcall(Result, Base, MethodName, Args);
      parseCatchClause(MB, Site);
      return;
    }
    if (eat(TokenKind::ColonColon)) {
      // Class::method(args)
      std::string MethodName = expectIdent("static method name");
      std::vector<VarId> Args = parseArgs(MB);
      auto Type = lookupType(Callee);
      if (!Type)
        return;
      auto It = MethodsByName.find(
          {Type->index(), MethodName, static_cast<uint32_t>(Args.size())});
      if (It == MethodsByName.end()) {
        error("unknown static method '" + Callee + "::" + MethodName + "/" +
              std::to_string(Args.size()) + "'");
        return;
      }
      if (!Builder.current().method(It->second).IsStatic) {
        error("'" + Callee + "::" + MethodName + "' is not static");
        return;
      }
      SiteId Site = MB.scall(Result, It->second, Args);
      parseCatchClause(MB, Site);
      return;
    }
    error("expected '.' or '::' in call");
  }

  void parseStatement(MethodBuilder &MB) {
    if (eatWord("return")) {
      VarId Value = getVar(MB, expectIdent("returned variable"));
      MB.move(MB.returnVar(), Value);
      return;
    }
    if (eatWord("throw")) {
      MB.throwStmt(getVar(MB, expectIdent("thrown variable")));
      return;
    }

    std::string First = expectIdent("statement");
    if (First.empty())
      return;

    if (at(TokenKind::Hash)) {
      // Static store: Class#field = x.
      auto Field = resolveField(First);
      if (!Field)
        return;
      if (!eat(TokenKind::Equals)) {
        error("expected '=' in static store");
        return;
      }
      MB.sstore(*Field, getVar(MB, expectIdent("stored variable")));
      return;
    }

    if (eat(TokenKind::Dot)) {
      // Either a store `y.C#f = x` or a result-less virtual call `y.m(..)`.
      std::string Second = expectIdent("field class or method name");
      if (at(TokenKind::Hash)) {
        auto Field = resolveField(Second);
        if (!Field)
          return;
        if (!eat(TokenKind::Equals)) {
          error("expected '=' in store");
          return;
        }
        VarId From = getVar(MB, expectIdent("stored variable"));
        MB.store(getVar(MB, First), *Field, From);
        return;
      }
      VarId Base = getVar(MB, First);
      std::vector<VarId> Args = parseArgs(MB);
      SiteId Site = MB.vcall(VarId::invalid(), Base, Second, Args);
      parseCatchClause(MB, Site);
      return;
    }
    if (at(TokenKind::ColonColon)) {
      // Result-less static call `C::m(..)`.
      parseCall(MB, VarId::invalid(), First);
      return;
    }
    if (!eat(TokenKind::Equals)) {
      error("expected '=', '.', or '::' after '" + First + "'");
      return;
    }

    // `First = ...`
    if (eatWord("new")) {
      auto Type = lookupType(expectIdent("allocated class"));
      if (Type)
        MB.alloc(getVar(MB, First), *Type);
      return;
    }
    if (eat(TokenKind::LParen)) {
      // Cast: First = (T) y
      auto Type = lookupType(expectIdent("cast target class"));
      if (!eat(TokenKind::RParen)) {
        error("expected ')' in cast");
        return;
      }
      VarId From = getVar(MB, expectIdent("cast source variable"));
      if (Type)
        MB.cast(getVar(MB, First), From, *Type);
      return;
    }

    std::string Second = expectIdent("variable, receiver, or class");
    if (at(TokenKind::Hash)) {
      // Static load: First = Class#field.
      auto Field = resolveField(Second);
      if (Field)
        MB.sload(getVar(MB, First), *Field);
      return;
    }
    if (at(TokenKind::Dot) && peek(2).Kind == TokenKind::Hash) {
      // Load: First = Second.C#f
      advance(); // '.'
      std::string ClassName = expectIdent("field class");
      auto Field = resolveField(ClassName);
      if (Field)
        MB.load(getVar(MB, First), getVar(MB, Second), *Field);
      return;
    }
    if (at(TokenKind::Dot) || at(TokenKind::ColonColon)) {
      parseCall(MB, getVar(MB, First), Second);
      return;
    }
    // Move: First = Second
    MB.move(getVar(MB, First), getVar(MB, Second));
  }

  std::vector<Token> Tokens;
  size_t Pos = 0;
  std::vector<std::string> Errors;

  std::vector<ClassDecl> Classes;
  ProgramBuilder Builder;
  std::map<std::string, TypeId> Types;
  std::map<std::pair<uint32_t, std::string>, FieldId> FieldsByName;
  std::map<std::tuple<uint32_t, std::string, uint32_t>, MethodId>
      MethodsByName;
  std::map<std::string, VarId> Vars;
};

} // namespace

ParseResult intro::parseProgram(std::string_view Source) {
  return Parser(Source).run();
}
