// BuiltinLibrary — the Java standard-library surface (System, Math, String,
// StringBuilder, wrapper classes, exception objects), shared by both
// execution engines: the tree-walking Interpreter and the bytecode VM.
// All entry points take already-evaluated values; argument evaluation (and
// its energy) belongs to the engines.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "energy/machine.hpp"
#include "jvm/heap.hpp"
#include "jvm/value.hpp"

namespace jepo::jvm {

struct Thrown;  // defined in interpreter.hpp

class BuiltinLibrary {
 public:
  /// `isProgramClass` lets the library distinguish user classes (whose
  /// methods the engine dispatches) from library/exception objects.
  BuiltinLibrary(Heap& heap, energy::SimMachine& machine, std::string& out,
                 std::function<bool(std::string_view)> isProgramClass);

  // ------------------------------------------------------------- helpers
  Value makeString(std::string s);
  std::string display(const Value& v) const;
  const std::string& stringAt(Ref r) const;
  [[noreturn]] void throwJava(const std::string& className,
                              const std::string& message);

  /// Box a primitive into a wrapper object (charges the boxing cost).
  Value box(std::string_view wrapper, Value inner);
  /// Unbox if boxed (charges); otherwise returns v unchanged.
  Value unboxIfNeeded(Value v);

  // ------------------------------------------------------------ dispatch
  /// System.out.println / print.
  void print(const Value* v, bool newline);

  /// Class constants (Integer.MAX_VALUE, Math.PI, ...).
  bool staticField(std::string_view className, std::string_view field,
                   Value* out);

  /// Static calls (Math.sqrt, System.arraycopy, Integer.parseInt, ...).
  /// Returns false when the class is not a builtin receiver.
  bool staticCall(std::string_view className, std::string_view name,
                  std::vector<Value>& args, Value* out);

  /// Instance calls on strings/builders/boxed/exception objects. Returns
  /// false when the receiver is a user-class object.
  bool instanceCall(Value receiver, std::string_view name,
                    std::vector<Value>& args, Value* out);

  /// Builtin constructors: StringBuilder, String, and undeclared
  /// *Exception/*Error classes. Returns false for user classes.
  bool construct(std::string_view className, std::vector<Value>& args,
                 Value* out);

 private:
  void charge(energy::Op op, std::uint64_t n = 1) { machine_->charge(op, n); }

  Heap* heap_;
  energy::SimMachine* machine_;
  std::string* out_;
  std::function<bool(std::string_view)> isProgramClass_;
};

}  // namespace jepo::jvm
