//===- cpptree/Tree.cpp ---------------------------------------*- C++ -*-===//

#include "cpptree/Tree.h"

#include <cassert>

using namespace steno;
using namespace steno::cpptree;

StmtRef Stmt::region() {
  auto S = std::make_shared<Stmt>();
  S->K = StmtKind::Region;
  return S;
}

StmtRef Stmt::declareLocal(std::string Name, expr::TypeRef Ty,
                           expr::ExprRef Init) {
  assert(Init && "declaration needs an initializer");
  auto S = std::make_shared<Stmt>();
  S->K = StmtKind::DeclareLocal;
  S->Name = std::move(Name);
  S->Ty = std::move(Ty);
  S->E = std::move(Init);
  return S;
}

StmtRef Stmt::declareSinkView(std::string Name, std::string SinkName) {
  auto S = std::make_shared<Stmt>();
  S->K = StmtKind::DeclareSinkView;
  S->Name = std::move(Name);
  S->SlotVar = std::move(SinkName);
  return S;
}

StmtRef Stmt::assign(std::string Name, expr::ExprRef Value) {
  assert(Value && "assignment needs a value");
  auto S = std::make_shared<Stmt>();
  S->K = StmtKind::Assign;
  S->Name = std::move(Name);
  S->E = std::move(Value);
  return S;
}

StmtRef Stmt::addIf(std::string Name, expr::ExprRef Guard,
                    expr::ExprRef Addend) {
  assert(Guard && Guard->type()->isBool() && "addIf guard must be bool");
  assert(Addend && Addend->type()->isNumeric() && "addIf adds a number");
  auto S = std::make_shared<Stmt>();
  S->K = StmtKind::AddIf;
  S->Name = std::move(Name);
  S->E = std::move(Guard);
  S->E2 = std::move(Addend);
  return S;
}

StmtRef Stmt::ifThen(expr::ExprRef Cond, StmtList Then) {
  assert(Cond && Cond->type()->isBool() && "if condition must be bool");
  auto S = std::make_shared<Stmt>();
  S->K = StmtKind::If;
  S->E = std::move(Cond);
  S->Body = std::move(Then);
  return S;
}

StmtRef Stmt::continueStmt() {
  auto S = std::make_shared<Stmt>();
  S->K = StmtKind::Continue;
  return S;
}

StmtRef Stmt::breakStmt() {
  auto S = std::make_shared<Stmt>();
  S->K = StmtKind::Break;
  return S;
}

StmtRef Stmt::loop(LoopInfo Info) {
  auto S = std::make_shared<Stmt>();
  S->K = StmtKind::Loop;
  S->Loop = std::move(Info);
  return S;
}

StmtRef Stmt::declareSink(std::string Name, SinkDecl Decl) {
  auto S = std::make_shared<Stmt>();
  S->K = StmtKind::DeclareSink;
  S->Name = std::move(Name);
  S->Sink = std::move(Decl);
  return S;
}

StmtRef Stmt::sinkGroupPut(std::string SinkName, expr::ExprRef Key,
                           expr::ExprRef Value) {
  auto S = std::make_shared<Stmt>();
  S->K = StmtKind::SinkGroupPut;
  S->Name = std::move(SinkName);
  S->E = std::move(Key);
  S->E2 = std::move(Value);
  return S;
}

StmtRef Stmt::sinkGroupAggUpdate(std::string SinkName, expr::ExprRef Key,
                                 expr::ExprRef Seed, std::string SlotVar,
                                 expr::ExprRef Update) {
  auto S = std::make_shared<Stmt>();
  S->K = StmtKind::SinkGroupAggUpdate;
  S->Name = std::move(SinkName);
  S->E = std::move(Key);
  S->E2 = std::move(Seed);
  S->SlotVar = std::move(SlotVar);
  S->E3 = std::move(Update);
  return S;
}

StmtRef Stmt::sinkVecPush(std::string SinkName, expr::ExprRef Elem) {
  auto S = std::make_shared<Stmt>();
  S->K = StmtKind::SinkVecPush;
  S->Name = std::move(SinkName);
  S->E = std::move(Elem);
  return S;
}

StmtRef Stmt::sortSinkVec(std::string SinkName, expr::TypeRef ElemType,
                          expr::Lambda KeyFn) {
  auto S = std::make_shared<Stmt>();
  S->K = StmtKind::SortSinkVec;
  S->Name = std::move(SinkName);
  S->Ty = std::move(ElemType);
  S->KeyFn = std::move(KeyFn);
  return S;
}

StmtRef Stmt::emit(expr::ExprRef Elem) {
  assert(Elem && "emit needs an element");
  auto S = std::make_shared<Stmt>();
  S->K = StmtKind::Emit;
  S->E = std::move(Elem);
  return S;
}

StmtRef Stmt::emitSink(std::string SinkName) {
  auto S = std::make_shared<Stmt>();
  S->K = StmtKind::EmitSink;
  S->Name = std::move(SinkName);
  return S;
}

StmtRef Stmt::profileCount(unsigned Slot, expr::ExprRef Guard) {
  auto S = std::make_shared<Stmt>();
  S->K = StmtKind::ProfileCount;
  S->ProfSlot = Slot;
  S->E = std::move(Guard);
  return S;
}

StmtRef Stmt::profileCountSink(unsigned Slot, std::string SinkName) {
  auto S = profileCount(Slot);
  S->Name = std::move(SinkName);
  return S;
}
